module Netlist = Qbpart_netlist.Netlist
module Wire = Qbpart_netlist.Wire
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Check = Qbpart_timing.Check

(* Row [u]'s CSR neighbours [v > u], rows ascending, are exactly the
   stored wires (u, v) in their sorted order, so this is the sum over
   the wire list term for term; B is read flat because a float
   returned by [Topology.b] is boxed per call. *)
let wirelength nl topo a =
  let m = Topology.m topo in
  let bf = Topology.b_flat topo in
  let xadj = Netlist.adj_offsets nl in
  let anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  let acc = ref 0.0 in
  for u = 0 to Netlist.n nl - 1 do
    let row = a.(u) * m in
    for k = xadj.(u) to xadj.(u + 1) - 1 do
      let v = anbr.(k) in
      if v > u then acc := !acc +. (awgt.(k) *. bf.(row + a.(v)))
    done
  done;
  !acc

let linear ~p a =
  let total = ref 0.0 in
  Array.iteri (fun j i -> total := !total +. p.(i).(j)) a;
  !total

let objective ?(alpha = 1.0) ?(beta = 1.0) ?p nl topo a =
  let lin = match p with None -> 0.0 | Some p -> linear ~p a in
  (alpha *. lin) +. (beta *. wirelength nl topo a)

let penalized ?alpha ?beta ?p ~penalty nl topo constraints a =
  objective ?alpha ?beta ?p nl topo a
  +. (penalty *. float_of_int (Check.count constraints topo ~assignment:a))

let loads nl topo a = Assignment.loads nl ~m:(Topology.m topo) a

let capacity_excess nl topo a =
  let loads = loads nl topo a in
  Array.mapi (fun i load -> Float.max 0.0 (load -. Topology.capacity topo i)) loads

let capacity_feasible nl topo a =
  Array.for_all (fun x -> x <= 0.0) (capacity_excess nl topo a)

let cut_wires nl a =
  Netlist.fold_wires nl ~init:0 ~f:(fun acc w ->
      if a.(Wire.u w) <> a.(Wire.v w) then acc + 1 else acc)

let external_weight nl a =
  Netlist.fold_wires nl ~init:0.0 ~f:(fun acc w ->
      if a.(Wire.u w) <> a.(Wire.v w) then acc +. Wire.weight w else acc)
