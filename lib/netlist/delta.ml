type op =
  | Add_component of { name : string; size : float }
  | Remove_component of { name : string }
  | Add_wire of { u : string; v : string; weight : float }
  | Remove_wire of { u : string; v : string }
  | Retime of { src : string; dst : string; budget : float }

type t = op list

type error = { at : int; what : string; reason : string }

let error_to_string e = Printf.sprintf "delta op %d (%s): %s" e.at e.what e.reason

let op_to_string = function
  | Add_component { name; size } -> Printf.sprintf "add %s %.17g" name size
  | Remove_component { name } -> Printf.sprintf "remove %s" name
  | Add_wire { u; v; weight } -> Printf.sprintf "wire %s %s %.17g" u v weight
  | Remove_wire { u; v } -> Printf.sprintf "unwire %s %s" u v
  | Retime { src; dst; budget } -> Printf.sprintf "retime %s %s %.17g" src dst budget

let to_string ops = String.concat "" (List.map (fun op -> op_to_string op ^ "\n") ops)

(* ------------------------------------------------------------------ *)
(* Parsing: Scan's line grammar, like Parser — total, line-numbered.   *)

exception Fail of error

let fail at what fmt =
  Printf.ksprintf (fun reason -> raise (Fail { at; what; reason })) fmt

(* A parse error names the line by its number and its text. *)
let bad sc fmt = fail (Scan.line sc) (Scan.line_text sc) fmt

let number sc what k =
  match Scan.float sc k with
  | Some f when Float.is_finite f -> f
  | Some _ -> bad sc "%s is not finite: %S" what (Scan.token sc k)
  | None -> bad sc "expected a number for %s, got %S" what (Scan.token sc k)

let op_of_line sc =
  let tok = Scan.token sc in
  match Scan.count sc with
  | 3 when Scan.is sc 0 "add" -> Add_component { name = tok 1; size = number sc "size" 2 }
  | 2 when Scan.is sc 0 "remove" -> Remove_component { name = tok 1 }
  | 3 when Scan.is sc 0 "wire" -> Add_wire { u = tok 1; v = tok 2; weight = 1.0 }
  | 4 when Scan.is sc 0 "wire" -> Add_wire { u = tok 1; v = tok 2; weight = number sc "weight" 3 }
  | 3 when Scan.is sc 0 "unwire" -> Remove_wire { u = tok 1; v = tok 2 }
  | 4 when Scan.is sc 0 "retime" ->
    Retime { src = tok 1; dst = tok 2; budget = number sc "budget" 3 }
  | _ ->
    bad sc "unknown or malformed delta op %S (expected add/remove/wire/unwire/retime)" (tok 0)

let parse_string text =
  let sc = Scan.of_string text in
  let ops = ref [] in
  match
    while Scan.next sc do
      if Scan.count sc > 0 then ops := op_of_line sc :: !ops
    done
  with
  | () -> Ok (List.rev !ops)
  | exception Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* Application: a mutable name-keyed model of the edited netlist.      *)

type slot = {
  s_name : string;
  s_size : float;
  s_origin : int; (* old id, or -1 for components added by the delta *)
  mutable s_alive : bool;
}

type model = {
  mutable slots : slot array;
  mutable n_slots : int;
  by_name : (string, int) Hashtbl.t; (* alive components only *)
  wires : (int * int, float) Hashtbl.t; (* key (min slot, max slot) *)
  mutable budgets : (int * int * float) list; (* directed, slot ids *)
}

let model_of_netlist nl =
  let n = Netlist.n nl in
  let slots =
    Array.init (max n 1) (fun j ->
        if j < n then
          let c = Netlist.component nl j in
          { s_name = Component.name c; s_size = Component.size c; s_origin = j; s_alive = true }
        else { s_name = ""; s_size = 1.0; s_origin = -1; s_alive = false })
  in
  let by_name = Hashtbl.create (2 * n) in
  for j = 0 to n - 1 do
    Hashtbl.replace by_name slots.(j).s_name j
  done;
  let wires = Hashtbl.create (2 * Netlist.wire_count nl + 16) in
  Array.iter
    (fun w -> Hashtbl.replace wires (Wire.u w, Wire.v w) (Wire.weight w))
    (Netlist.wires nl);
  { slots; n_slots = n; by_name; wires; budgets = [] }

let add_slot m slot =
  if m.n_slots = Array.length m.slots then begin
    let bigger = Array.make (2 * Array.length m.slots) slot in
    Array.blit m.slots 0 bigger 0 m.n_slots;
    m.slots <- bigger
  end;
  m.slots.(m.n_slots) <- slot;
  m.n_slots <- m.n_slots + 1;
  m.n_slots - 1

let lookup m at what name =
  match Hashtbl.find_opt m.by_name name with
  | Some j -> j
  | None -> fail at what "unknown component %S" name

let wire_key u v = if u < v then (u, v) else (v, u)

let apply_op m at op =
  let what = op_to_string op in
  match op with
  | Add_component { name; size } ->
      if Hashtbl.mem m.by_name name then fail at what "duplicate component name %S" name;
      if not (Float.is_finite size) || size <= 0.0 then
        fail at what "component size must be finite and > 0 (got %g)" size;
      let j = add_slot m { s_name = name; s_size = size; s_origin = -1; s_alive = true } in
      Hashtbl.replace m.by_name name j
  | Remove_component { name } ->
      let j = lookup m at what name in
      m.slots.(j).s_alive <- false;
      Hashtbl.remove m.by_name name;
      (* Incident wires and budgets go with the component. *)
      let incident =
        Hashtbl.fold (fun (u, v) _ acc -> if u = j || v = j then (u, v) :: acc else acc) m.wires []
      in
      List.iter (Hashtbl.remove m.wires) incident;
      m.budgets <- List.filter (fun (src, dst, _) -> src <> j && dst <> j) m.budgets
  | Add_wire { u; v; weight } ->
      let ju = lookup m at what u and jv = lookup m at what v in
      if ju = jv then fail at what "self-loop on component %S" u;
      if not (Float.is_finite weight) || weight <= 0.0 then
        fail at what "wire weight must be finite and > 0 (got %g)" weight;
      let key = wire_key ju jv in
      let prev = Option.value (Hashtbl.find_opt m.wires key) ~default:0.0 in
      Hashtbl.replace m.wires key (prev +. weight)
  | Remove_wire { u; v } ->
      let ju = lookup m at what u and jv = lookup m at what v in
      if ju = jv then fail at what "self-loop on component %S" u;
      let key = wire_key ju jv in
      if not (Hashtbl.mem m.wires key) then
        fail at what "no wire between %S and %S" u v;
      Hashtbl.remove m.wires key
  | Retime { src; dst; budget } ->
      let js = lookup m at what src and jd = lookup m at what dst in
      if js = jd then fail at what "self-loop timing budget on component %S" src;
      if not (Float.is_finite budget) || budget <= 0.0 then
        fail at what "timing budget must be finite and > 0 (got %g)" budget;
      m.budgets <- (js, jd, budget) :: m.budgets

type applied = {
  netlist : Netlist.t;
  new_of_old : int array;
  old_of_new : int array;
  retimes : (int * int * float) list;
  dims_changed : bool;
}

let apply nl ops =
  let n0 = Netlist.n nl in
  let m = model_of_netlist nl in
  try
    List.iteri (fun i op -> apply_op m (i + 1) op) ops;
    (* Dense renumbering: surviving originals keep their relative order,
       added components follow in insertion order.  A pure add/wire/retime
       delta therefore leaves every pre-existing id unchanged. *)
    let new_of_slot = Array.make m.n_slots (-1) in
    let next = ref 0 in
    for j = 0 to m.n_slots - 1 do
      if m.slots.(j).s_alive then begin
        new_of_slot.(j) <- !next;
        incr next
      end
    done;
    let n_new = !next in
    let new_of_old = Array.init n0 (fun j -> new_of_slot.(j)) in
    let old_of_new = Array.make n_new (-1) in
    for j = 0 to n0 - 1 do
      if new_of_old.(j) >= 0 then old_of_new.(new_of_old.(j)) <- j
    done;
    let components = ref [] in
    for j = m.n_slots - 1 downto 0 do
      if m.slots.(j).s_alive then
        components :=
          Component.make ~id:new_of_slot.(j) ~name:m.slots.(j).s_name ~size:m.slots.(j).s_size
          :: !components
    done;
    let wires =
      Hashtbl.fold
        (fun (u, v) weight acc ->
          if m.slots.(u).s_alive && m.slots.(v).s_alive then
            Wire.make new_of_slot.(u) new_of_slot.(v) ~weight :: acc
          else acc)
        m.wires []
    in
    let netlist = Netlist.make ~components:!components ~wires in
    let retimes =
      List.rev_map
        (fun (src, dst, b) -> (new_of_slot.(src), new_of_slot.(dst), b))
        (List.filter
           (fun (src, dst, _) -> m.slots.(src).s_alive && m.slots.(dst).s_alive)
           m.budgets)
    in
    let dims_changed = n_new <> n0 || Array.exists (fun j -> j < 0) new_of_old in
    Ok { netlist; new_of_old; old_of_new; retimes; dims_changed }
  with Fail e -> Error e
