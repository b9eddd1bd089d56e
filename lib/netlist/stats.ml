type t = {
  name : string;
  components : int;
  wire_pairs : int;
  interconnections : float;
  total_size : float;
  size_min : float;
  size_max : float;
  degree_max : int;
  degree_mean : float;
}

let of_netlist ?(name = "") nl =
  let n = Netlist.n nl in
  let size_min = ref infinity and size_max = ref 0.0 in
  let deg_max = ref 0 and deg_sum = ref 0 in
  for j = 0 to n - 1 do
    let s = Netlist.size nl j in
    if s < !size_min then size_min := s;
    if s > !size_max then size_max := s;
    let d = Netlist.degree nl j in
    if d > !deg_max then deg_max := d;
    deg_sum := !deg_sum + d
  done;
  {
    name;
    components = n;
    wire_pairs = Netlist.wire_count nl;
    interconnections = Netlist.total_wire_weight nl;
    total_size = Netlist.total_size nl;
    size_min = (if n = 0 then 0.0 else !size_min);
    size_max = !size_max;
    degree_max = !deg_max;
    degree_mean = (if n = 0 then 0.0 else float_of_int !deg_sum /. float_of_int n);
  }

let size_span_orders t =
  if t.size_min <= 0.0 then 0.0 else log10 (t.size_max /. t.size_min)

let pp ppf t =
  Format.fprintf ppf
    "%s: %d components, %d wire pairs (%.0f wires), size total %.1f [%.2f..%.1f], deg max %d mean %.1f"
    t.name t.components t.wire_pairs t.interconnections t.total_size t.size_min t.size_max
    t.degree_max t.degree_mean
