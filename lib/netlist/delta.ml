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
(* Application: an overlay on the old netlist.  Slots [0, n) are its
   components; added components take the next slots in insertion
   order.  The overlay records only what the delta edits, and the
   edited netlist is built once, from the old wires plus the touched
   pairs.  A delta that edits no component and no wire keeps the old
   netlist. *)

type overlay = {
  base : Netlist.t;
  names : (string, int) Hashtbl.t; (* names the delta rebinds: slot, or -1 once removed *)
  mutable added : (string * float) list; (* newest first *)
  mutable slots : int;
  mutable gone : int list; (* removed slots *)
  pairs : (int * int, float) Hashtbl.t; (* touched pairs (u < v): weight, 0. once unwired *)
  mutable budgets : (int * int * float) list; (* newest first *)
}

let find o name =
  match Hashtbl.find_opt o.names name with
  | Some j -> j
  | None -> Option.value (Netlist.find_by_name o.base name) ~default:(-1)

(* A pair's current weight: touched, else the old wire's.  0. means
   unwired: the builder admits no wire of weight <= 0. *)
let weight o ((u, v) as key) =
  match Hashtbl.find_opt o.pairs key with Some w -> w | None -> Netlist.connection o.base u v

let apply_op o at op =
  let fail fmt = fail at (op_to_string op) fmt in
  let lookup name =
    let j = find o name in
    if j < 0 then fail "unknown component %S" name;
    j
  in
  let pair u v =
    let ju = lookup u in
    let jv = lookup v in
    if ju = jv then fail "self-loop on component %S" u;
    if ju < jv then (ju, jv) else (jv, ju)
  in
  match op with
  | Add_component { name; size } ->
      if find o name >= 0 then fail "duplicate component name %S" name;
      if not (Float.is_finite size) || size <= 0.0 then
        fail "component size must be finite and > 0 (got %g)" size;
      Hashtbl.replace o.names name o.slots;
      o.added <- (name, size) :: o.added;
      o.slots <- o.slots + 1
  | Remove_component { name } ->
      (* Its wires and budgets go with it: the build skips removed slots. *)
      o.gone <- lookup name :: o.gone;
      Hashtbl.replace o.names name (-1)
  | Add_wire { u; v; weight = w } ->
      let key = pair u v in
      if not (Float.is_finite w) || w <= 0.0 then
        fail "wire weight must be finite and > 0 (got %g)" w;
      Hashtbl.replace o.pairs key (weight o key +. w)
  | Remove_wire { u; v } ->
      let key = pair u v in
      if weight o key = 0.0 then fail "no wire between %S and %S" u v;
      Hashtbl.replace o.pairs key 0.0
  | Retime { src; dst; budget } ->
      let js = lookup src in
      let jd = lookup dst in
      if js = jd then fail "self-loop timing budget on component %S" src;
      if not (Float.is_finite budget) || budget <= 0.0 then
        fail "timing budget must be finite and > 0 (got %g)" budget;
      o.budgets <- (js, jd, budget) :: o.budgets

(* The edited netlist and the new id of every slot ([-1] if removed).
   Each wire pair reaches the builder once, so its merge adds only
   [0. +. w]. *)
let build o =
  if Hashtbl.length o.names = 0 && Hashtbl.length o.pairs = 0 then
    (o.base, Array.init o.slots Fun.id)
  else begin
    let n0 = Netlist.n o.base in
    let added = Array.of_list (List.rev o.added) in
    (* 0 marks a live slot until the loop numbers it *)
    let new_of_slot = Array.make o.slots 0 in
    List.iter (fun j -> new_of_slot.(j) <- -1) o.gone;
    let b = Netlist.Builder.create () in
    for j = 0 to o.slots - 1 do
      if new_of_slot.(j) >= 0 then begin
        let name, size =
          if j < n0 then
            let c = Netlist.component o.base j in
            (Component.name c, Component.size c)
          else added.(j - n0)
        in
        new_of_slot.(j) <- Netlist.Builder.add_component b ~name ~size ()
      end
    done;
    let wire u v weight =
      let u = new_of_slot.(u) and v = new_of_slot.(v) in
      if u >= 0 && v >= 0 && weight <> 0.0 then Netlist.Builder.add_wire b u v ~weight ()
    in
    Netlist.iter_wires o.base (fun w ->
        let u = Wire.u w and v = Wire.v w in
        if not (Hashtbl.mem o.pairs (u, v)) then wire u v (Wire.weight w));
    Hashtbl.iter (fun (u, v) weight -> wire u v weight) o.pairs;
    (Netlist.Builder.build b, new_of_slot)
  end

type applied = {
  netlist : Netlist.t;
  new_of_old : int array;
  old_of_new : int array;
  retimes : (int * int * float) list;
  dims_changed : bool;
}

let apply nl ops =
  let n0 = Netlist.n nl in
  let o =
    {
      base = nl;
      names = Hashtbl.create 8;
      added = [];
      slots = n0;
      gone = [];
      pairs = Hashtbl.create 8;
      budgets = [];
    }
  in
  match List.iteri (fun i op -> apply_op o (i + 1) op) ops with
  | exception Fail e -> Error e
  | () ->
    (* Survivors keep their relative order and added components follow
       in insertion order, so a delta that removes nothing leaves every
       pre-existing id unchanged. *)
    let netlist, new_of_slot = build o in
    let new_of_old = Array.sub new_of_slot 0 n0 in
    let old_of_new = Array.make (Netlist.n netlist) (-1) in
    Array.iteri (fun j k -> if k >= 0 then old_of_new.(k) <- j) new_of_old;
    let retimes =
      List.filter_map
        (fun (src, dst, b) ->
          let s = new_of_slot.(src) and d = new_of_slot.(dst) in
          if s >= 0 && d >= 0 then Some (s, d, b) else None)
        (List.rev o.budgets)
    in
    let dims_changed = Netlist.n netlist <> n0 || Array.mem (-1) new_of_old in
    Ok { netlist; new_of_old; old_of_new; retimes; dims_changed }
