(* The reference the budget store answers to: a Hashtbl of directed
   budgets under the rule [Constraints.Builder.add] documents (an
   infinite budget is dropped, and a later budget on the same directed
   pair replaces the kept one only if strictly smaller), with every
   view of D_C the store gives computed the slow way.  Random op
   sequences over few components repeat pairs in both directions. *)

module Constraints = Qbpart_timing.Constraints

type t = { n : int; dc : (int * int, float) Hashtbl.t }

let create ~n = { n; dc = Hashtbl.create 16 }

let add t j1 j2 b =
  if b < infinity then
    match Hashtbl.find_opt t.dc (j1, j2) with
    | Some kept when not (b < kept) -> ()
    | _ -> Hashtbl.replace t.dc (j1, j2) b

let budget t j1 j2 = Option.value ~default:infinity (Hashtbl.find_opt t.dc (j1, j2))
let mem t j1 j2 = Hashtbl.mem t.dc (j1, j2)

(* The finite directed budgets by source, then destination. *)
let walk t =
  Hashtbl.fold (fun (j1, j2) b acc -> (j1, j2, b) :: acc) t.dc []
  |> List.sort (fun (a1, a2, _) (b1, b2, _) -> compare (a1, a2) (b1, b2))

(* Row [j]: [(partner, D_C(j, partner), D_C(partner, j))] by partner,
   +inf for an absent direction. *)
let partners t =
  Array.init t.n (fun j ->
      List.init t.n Fun.id
      |> List.filter (fun o -> mem t j o || mem t o j)
      |> List.map (fun o -> (o, budget t j o, budget t o j)))

type op = Add of int * int * float | Add_sym of int * int * float

let replay ~n ops =
  let r = create ~n and b = Constraints.Builder.create ~n in
  List.iter
    (function
      | Add (j1, j2, x) ->
        add r j1 j2 x;
        Constraints.Builder.add b j1 j2 x
      | Add_sym (j1, j2, x) ->
        add r j1 j2 x;
        add r j2 j1 x;
        Constraints.Builder.add_sym b j1 j2 x)
    ops;
  (r, Constraints.Builder.build b)

(* [n] in 2..12 and up to 40 ops on distinct pairs, each budget drawn
   from a pool with both zeros, +inf and repeats, so ties, tighter and
   looser repeats and dropped budgets all occur. *)
let gen =
  QCheck.Gen.(
    let* n = int_range 2 12 in
    let budget =
      oneof [ oneofl [ 0.0; -0.0; 0.5; 1.0; 2.0; 3.5; infinity ]; float_range 0.0 9.0 ]
    in
    let pair =
      let* j1 = int_bound (n - 1) in
      let* d = int_range 1 (n - 1) in
      return (j1, (j1 + d) mod n)
    in
    let op =
      let* j1, j2 = pair in
      let* x = budget in
      frequency [ (3, return (Add (j1, j2, x))); (1, return (Add_sym (j1, j2, x))) ]
    in
    let* ops = list_size (int_bound 40) op in
    return (n, ops))

let arbitrary =
  QCheck.make gen ~print:(fun (n, ops) ->
      Printf.sprintf "n=%d: %s" n
        (String.concat "; "
           (List.map
              (function
                | Add (a, b, x) -> Printf.sprintf "add %d %d %h" a b x
                | Add_sym (a, b, x) -> Printf.sprintf "add_sym %d %d %h" a b x)
              ops)))
