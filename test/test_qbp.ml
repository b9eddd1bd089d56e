(* Core tests: the Q-hat construction (checked against the paper's
   section 3.3 worked example entry by entry), the embedding theorems
   validated against exact enumeration, the eta/omega vectors, the
   generalized Burkard heuristic, and the repair machinery. *)

open Qbpart_core
module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Evaluate = Qbpart_partition.Evaluate
module Wire = Qbpart_netlist.Wire
module Mthg = Qbpart_gap.Mthg

let check = Alcotest.check
let fail = Alcotest.fail
let flt = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* The paper's worked example (section 3.3 / figure 1):
   3 components a, b, c on a 2x2 partition array; 5 wires a-b, 2 wires
   b-c; D_C(a,b) = 1, D_C(b,c) = 1, D_C(a,c) = infinity; B = D =
   Manhattan distances. *)

let paper_example ?p () =
  let b = Netlist.Builder.create () in
  let ca = Netlist.Builder.add_component b ~name:"a" ~size:1.0 () in
  let cb = Netlist.Builder.add_component b ~name:"b" ~size:1.0 () in
  let cc = Netlist.Builder.add_component b ~name:"c" ~size:1.0 () in
  Netlist.Builder.add_wire b ca cb ~weight:5.0 ();
  Netlist.Builder.add_wire b cb cc ~weight:2.0 ();
  let nl = Netlist.Builder.build b in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity:10.0 () in
  let cons = Constraints.Builder.create ~n:3 in
  Constraints.Builder.add_sym cons 0 1 1.0;
  Constraints.Builder.add_sym cons 1 2 1.0;
  Problem.make ?p ~constraints:(Constraints.Builder.build cons) nl topo

(* The published Q-hat, 12x12, ordered (a,1)(a,2)(a,3)(a,4)(b,1)...
   "-" entries are 0; p_ij are the diagonal.  Flattening convention in
   this repository is r = i + j*M, which matches the paper's column
   catenation. *)
let paper_qhat p =
  let z = 0.0 in
  [|
    (*            a1    a2    a3    a4    b1    b2    b3    b4    c1    c2    c3    c4 *)
    (* a1 *) [| p 0 0;  z;    z;    z;    z;    5.;   5.;   50.;  z;    z;    z;    z |];
    (* a2 *) [| z;    p 1 0;  z;    z;    5.;   z;    50.;  5.;   z;    z;    z;    z |];
    (* a3 *) [| z;    z;    p 2 0;  z;    5.;   50.;  z;    5.;   z;    z;    z;    z |];
    (* a4 *) [| z;    z;    z;    p 3 0;  50.;  5.;   5.;   z;    z;    z;    z;    z |];
    (* b1 *) [| z;    5.;   5.;   50.;  p 0 1;  z;    z;    z;    z;    2.;   2.;   50. |];
    (* b2 *) [| 5.;   z;    50.;  5.;   z;    p 1 1;  z;    z;    2.;   z;    50.;  2. |];
    (* b3 *) [| 5.;   50.;  z;    5.;   z;    z;    p 2 1;  z;    2.;   50.;  z;    2. |];
    (* b4 *) [| 50.;  5.;   5.;   z;    z;    z;    z;    p 3 1;  50.;  2.;   2.;   z |];
    (* c1 *) [| z;    z;    z;    z;    z;    2.;   2.;   50.;  p 0 2;  z;    z;    z |];
    (* c2 *) [| z;    z;    z;    z;    2.;   z;    50.;  2.;   z;    p 1 2;  z;    z |];
    (* c3 *) [| z;    z;    z;    z;    2.;   50.;  z;    2.;   z;    z;    p 2 2;  z |];
    (* c4 *) [| z;    z;    z;    z;    50.;  2.;   2.;   z;    z;    z;    z;    p 3 2 |];
  |]

let test_qhat_matches_paper () =
  (* distinct P entries so the diagonal placement is fully checked *)
  let p = Array.init 4 (fun i -> Array.init 3 (fun j -> float_of_int ((10 * i) + j + 1))) in
  let problem = paper_example ~p () in
  let q = Qmatrix.make ~penalty:50.0 problem in
  let expected = paper_qhat (fun i j -> p.(i).(j)) in
  let dense = Qmatrix.dense q in
  check Alcotest.int "dimension" 12 (Qmatrix.dim q);
  for r1 = 0 to 11 do
    for r2 = 0 to 11 do
      check flt (Printf.sprintf "qhat[%d][%d]" r1 r2) expected.(r1).(r2) dense.(r1).(r2)
    done
  done

let test_qhat_value_invariant () =
  (* y^T Q-hat y under the paper's replace-semantics: linear cost plus,
     for every ordered component pair, either the penalty (when that
     direction's timing constraint is violated) or the wire term.
     Checked against an independent reimplementation over all 4^3
     assignments. *)
  let p = Array.init 4 (fun i -> Array.init 3 (fun j -> float_of_int (i + j))) in
  let problem = paper_example ~p () in
  let nl = problem.Problem.netlist and topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  let q = Qmatrix.make ~penalty:50.0 problem in
  Exact.enumerate ~m:4 ~n:3 (fun a ->
      let expected = ref 0.0 in
      Array.iteri (fun j i -> expected := !expected +. p.(i).(j)) a;
      for j1 = 0 to 2 do
        for j2 = 0 to 2 do
          if j1 <> j2 then
            if Topology.d topo a.(j1) a.(j2) > Constraints.budget cons j1 j2 then
              expected := !expected +. 50.0
            else
              expected :=
                !expected +. (Netlist.connection nl j1 j2 *. Topology.b topo a.(j1) a.(j2))
        done
      done;
      check flt "value spec" !expected (Qmatrix.value q a))

let test_penalized_objective_coincides_on_feasible () =
  (* Both the paper's replacement embedding (Qmatrix.value) and the
     solver's additive embedding (penalized_objective) coincide with
     the plain objective over the feasible set F_R — the coincidence
     property both theorems rest on. *)
  let problem = paper_example () in
  let q = Qmatrix.make ~penalty:50.0 problem in
  Exact.enumerate ~m:4 ~n:3 (fun a ->
      if Problem.timing_feasible problem a then begin
        let obj = Problem.objective problem a in
        check flt "additive embedding coincides" obj
          (Problem.penalized_objective problem ~penalty:50.0 a);
        (* value counts each wire twice (ordered pairs), so compare
           against obj + wirelength *)
        let wl = Evaluate.wirelength problem.Problem.netlist problem.Problem.topology a in
        check flt "replacement embedding coincides" (obj +. wl) (Qmatrix.value q a)
      end)

(* ------------------------------------------------------------------ *)
(* Embedding theorems vs exact enumeration on random tiny instances *)

let random_tiny_problem seed =
  let rng = Rng.create seed in
  let n = 3 + Rng.int rng 3 in
  let m = 2 + Rng.int rng 2 in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires:(2 * n)) in
  let capacity = Netlist.total_size nl /. float_of_int m *. 1.6 in
  let topo = Grid.make ~rows:1 ~cols:m ~capacity () in
  let cons = Constraints.Builder.create ~n in
  for _ = 1 to n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then Constraints.Builder.add cons j1 j2 (float_of_int (Rng.int rng m))
  done;
  let p =
    Array.init m (fun _ -> Array.init n (fun _ -> Rng.float rng 5.0))
  in
  Problem.make ~p ~constraints:(Constraints.Builder.build cons) nl topo

(* Theorem 1: with U > 2 * sum |q|, the embedded unconstrained problem
   has the same optimal value as the constrained one, and its
   minimizer is timing-feasible — whenever the feasible set is
   non-empty. *)
let prop_theorem1 =
  QCheck.Test.make ~name:"theorem 1: exact embedding equivalence" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_tiny_problem seed in
      match Exact.solve problem with
      | None -> true (* F_R empty: theorem's hypothesis not met *)
      | Some (_, constrained_opt) ->
        let u = Embed.theorem1_penalty problem in
        let q = Qmatrix.make ~penalty:u problem in
        let y_star, _ = Exact.solve_embedded q in
        Embed.solution_in_feasible_set problem y_star
        && Float.abs (Problem.objective problem y_star -. constrained_opt) < 1e-6)

(* Theorem 2: with ANY penalty (the paper uses 50), if the embedded
   minimizer happens to be timing-feasible then it is optimal for the
   constrained problem. *)
let prop_theorem2 =
  QCheck.Test.make ~name:"theorem 2: sufficient optimality condition" ~count:40
    QCheck.(pair (int_range 0 100_000) (int_range 1 60))
    (fun (seed, pen) ->
      let problem = random_tiny_problem seed in
      let q = Qmatrix.make ~penalty:(float_of_int pen) problem in
      match Exact.solve problem with
      | None -> true
      | Some (_, constrained_opt) ->
        let y_star, _ = Exact.solve_embedded q in
        if Embed.theorem2_certificate q y_star then
          Float.abs (Problem.objective problem y_star -. constrained_opt) < 1e-6
        else true)

(* Paper section 2.2.3: the Quadratic Assignment Problem is the special
   case with N = M, unit sizes and capacities, B the distance matrix
   and D = 0, each pair wired by its flows in both directions.  The
   capacities then admit exactly the permutations, and on them
   equation (1) is the QAP cost summed over ordered pairs. *)
let prop_qap_special_case =
  QCheck.Test.make ~name:"QAP is the unit-capacity special case (n = 2..6)" ~count:60
    QCheck.(pair (int_range 2 6) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let flow =
        Array.init n (fun j1 ->
            Array.init n (fun j2 -> if j1 = j2 then 0.0 else float_of_int (Rng.int rng 10)))
      in
      let dist = Array.make_matrix n n 0.0 in
      for i1 = 0 to n - 1 do
        for i2 = i1 + 1 to n - 1 do
          let d = float_of_int (1 + Rng.int rng 9) in
          dist.(i1).(i2) <- d;
          dist.(i2).(i1) <- d
        done
      done;
      let b = Netlist.Builder.create () in
      for j = 0 to n - 1 do
        ignore (Netlist.Builder.add_component b ~name:(Printf.sprintf "f%d" j) ~size:1.0 ())
      done;
      for j1 = 0 to n - 1 do
        for j2 = j1 + 1 to n - 1 do
          let w = flow.(j1).(j2) +. flow.(j2).(j1) in
          if w > 0.0 then Netlist.Builder.add_wire b j1 j2 ~weight:w ()
        done
      done;
      let topo =
        Topology.make ~capacities:(Array.make n 1.0) ~b:dist ~d:(Array.make_matrix n n 0.0) ()
      in
      let problem = Problem.make (Netlist.Builder.build b) topo in
      let qap_cost a =
        let c = ref 0.0 in
        Array.iteri (fun j1 row -> Array.iteri (fun j2 f -> c := !c +. (f *. dist.(a.(j1)).(a.(j2)))) row) flow;
        !c
      in
      let is_permutation a =
        let seen = Array.make n false in
        Array.iter (fun i -> seen.(i) <- true) a;
        Array.for_all Fun.id seen
      in
      let ok = ref true and best = ref infinity in
      Exact.enumerate ~m:n ~n (fun a ->
          let perm = is_permutation a in
          if Problem.capacity_feasible problem a <> perm then ok := false;
          if perm then begin
            let c = qap_cost a in
            if Float.abs (Problem.objective problem a -. c) > 1e-9 then ok := false;
            best := Float.min !best c
          end);
      !ok
      &&
      match Exact.solve problem with
      | Some (_, opt) -> Float.abs (opt -. !best) < 1e-9
      | None -> false)

let test_theorem1_penalty_bound () =
  let problem = paper_example () in
  let u = Embed.theorem1_penalty problem in
  (* sum |q| = 2*(5+2) wires * sum(B) = 14 * 16 = 224; U > 448 *)
  check Alcotest.bool "bound exceeds 2*sum" (u > 448.0) true;
  check flt "exact value" 449.0 u

let test_in_region () =
  let problem = paper_example () in
  let m = 4 in
  (* (a at 1, b at 4): D = 2 > D_C = 1 -> outside the region *)
  let r1 = Assignment.flat_index ~m ~i:0 ~j:0 in
  let r2 = Assignment.flat_index ~m ~i:3 ~j:1 in
  check Alcotest.bool "violating pair outside R" false (Embed.in_region problem r1 r2);
  (* (a at 1, b at 2): D = 1 <= 1 -> inside *)
  let r2 = Assignment.flat_index ~m ~i:1 ~j:1 in
  check Alcotest.bool "feasible pair inside R" true (Embed.in_region problem r1 r2);
  (* same component is always inside (C3 protects it) *)
  let r2 = Assignment.flat_index ~m ~i:3 ~j:0 in
  check Alcotest.bool "same component inside R" true (Embed.in_region problem r1 r2)

(* ------------------------------------------------------------------ *)
(* eta / omega *)

(* The Paper-rule eta must equal the literal column sums of the dense
   Q-hat over the selected coordinates. *)
let prop_eta_paper_is_column_sum =
  QCheck.Test.make ~name:"paper eta = dense column sums" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_tiny_problem seed in
      let q = Qmatrix.make ~penalty:50.0 problem in
      let m = Problem.m problem and n = Problem.n problem in
      let rng = Rng.create (seed + 1) in
      let u = Assignment.random rng ~n ~m in
      let eta = Qmatrix.eta ~rule:Qmatrix.Paper q u in
      let dense = Qmatrix.dense q in
      let ok = ref true in
      for s = 0 to (m * n) - 1 do
        let expected = ref 0.0 in
        Array.iteri
          (fun j i ->
            let r = Assignment.flat_index ~m ~i ~j in
            expected := !expected +. dense.(r).(s))
          u;
        if Float.abs (eta.(s) -. !expected) > 1e-6 then ok := false
      done;
      !ok)

(* Solver-rule eta at the current coordinates reproduces exact
   single-move deltas of the penalized objective:
   eta(i,j) - eta(u(j),j) = penalized(move j to i) - penalized(u). *)
let prop_eta_solver_matches_move_delta =
  QCheck.Test.make ~name:"solver eta gives exact move deltas" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_tiny_problem seed in
      let q = Qmatrix.make ~penalty:50.0 problem in
      let m = Problem.m problem and n = Problem.n problem in
      let rng = Rng.create (seed + 2) in
      let u = Assignment.random rng ~n ~m in
      let eta = Qmatrix.eta q u in
      let base = Problem.penalized_objective problem ~penalty:50.0 u in
      let ok = ref true in
      for j = 0 to n - 1 do
        for i = 0 to m - 1 do
          let u' = Assignment.copy u in
          u'.(j) <- i;
          let delta = Problem.penalized_objective problem ~penalty:50.0 u' -. base in
          let eta_delta =
            eta.(Assignment.flat_index ~m ~i ~j)
            -. eta.(Assignment.flat_index ~m ~i:u.(j) ~j)
          in
          if Float.abs (delta -. eta_delta) > 1e-6 then ok := false
        done
      done;
      !ok)

(* omega is a valid upper bound on eta for every placement, and xi is
   its sum at the iterate. *)
let prop_omega_bounds_eta =
  QCheck.Test.make ~name:"omega >= eta for all placements" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_tiny_problem seed in
      let q = Qmatrix.make ~penalty:50.0 problem in
      let m = Problem.m problem and n = Problem.n problem in
      let omega = Omega_reference.by_entry ~rule:Qmatrix.Solver q in
      let omega_paper = Omega_reference.by_entry ~rule:Qmatrix.Paper q in
      let memo = Qmatrix.omega_memo ~m ~n in
      let rng = Rng.create (seed + 3) in
      let ok = ref true in
      for _ = 1 to 10 do
        let u = Assignment.random rng ~n ~m in
        let eta = Qmatrix.eta q u in
        let eta_paper = Qmatrix.eta ~rule:Qmatrix.Paper q u in
        for r = 0 to (m * n) - 1 do
          if eta.(r) > omega.(r) +. 1e-6 then ok := false;
          if eta_paper.(r) > omega_paper.(r) +. 1e-6 then ok := false
        done;
        if Qmatrix.xi ~rule:Qmatrix.Solver q memo u <> Omega_reference.xi omega ~m u then
          ok := false;
        if Qmatrix.xi ~rule:Qmatrix.Paper q memo u <> Omega_reference.xi omega_paper ~m u then
          ok := false
      done;
      !ok)

let prop_candidate_costs_is_eta_slice =
  QCheck.Test.make ~name:"candidate_costs == solver eta slice" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_tiny_problem seed in
      let q = Qmatrix.make ~penalty:50.0 problem in
      let m = Problem.m problem and n = Problem.n problem in
      let u = Assignment.random (Rng.create (seed + 4)) ~n ~m in
      let eta = Qmatrix.eta q u in
      let ok = ref true in
      for j = 0 to n - 1 do
        let row = Qmatrix.candidate_costs q u ~j in
        for i = 0 to m - 1 do
          if Float.abs (row.(i) -. eta.(Assignment.flat_index ~m ~i ~j)) > 1e-9 then ok := false
        done
      done;
      !ok)

let prop_pair_pass_monotone =
  QCheck.Test.make ~name:"pair_pass never increases the penalized cost" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_tiny_problem seed in
      let q = Qmatrix.make ~penalty:1e9 problem in
      let m = Problem.m problem and n = Problem.n problem in
      let u = Assignment.random (Rng.create (seed + 5)) ~n ~m in
      let nl = problem.Problem.netlist in
      let loads = Assignment.loads nl ~m u in
      let before = Problem.penalized_objective problem ~penalty:1e9 u in
      let (_ : bool) = Repair.pair_pass q u ~loads ~max_pairs:50 in
      let after = Problem.penalized_objective problem ~penalty:1e9 u in
      (* loads stay in sync too *)
      let fresh = Assignment.loads nl ~m u in
      after <= before +. 1e-3
      && Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) loads fresh)

(* ------------------------------------------------------------------ *)
(* Problem *)

let test_problem_normalize () =
  let p = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |]; [| 7.; 8.; 9. |]; [| 1.; 1.; 1. |] |] in
  let problem = paper_example ~p () in
  let problem = Problem.make ~alpha:2.0 ~beta:3.0 ~p ~constraints:problem.Problem.constraints
      problem.Problem.netlist problem.Problem.topology in
  let normalized = Problem.normalize problem in
  check Alcotest.bool "is normalized" true (Problem.is_normalized normalized);
  Exact.enumerate ~m:4 ~n:3 (fun a ->
      check flt "objective preserved" (Problem.objective problem a)
        (Problem.objective normalized a))

let test_problem_deviation_p () =
  let problem = paper_example () in
  let initial = [| 0; 1; 3 |] in
  let p = Problem.deviation_p problem ~initial in
  (* p.(i).(j) = size_j * B(i, initial_j); sizes are 1 here *)
  check flt "keep place costs 0" 0.0 p.(0).(0);
  check flt "move a to 3" 2.0 p.(3).(0);
  check flt "move b to 0" 1.0 p.(0).(1)

let test_problem_validation () =
  let problem = paper_example () in
  let nl = problem.Problem.netlist and topo = problem.Problem.topology in
  (try
     ignore (Problem.make ~p:[| [| 1.0 |] |] nl topo);
     fail "bad P accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Problem.make ~alpha:(-1.0) nl topo);
     fail "negative alpha accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Problem.make ~constraints:(Constraints.none ~n:7) nl topo);
    fail "mismatched constraints accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Burkard heuristic *)

let test_burkard_finds_paper_example_optimum () =
  let problem = paper_example () in
  let exact = Option.get (Exact.solve problem) in
  let result = Burkard.solve problem in
  match result.Burkard.best_feasible with
  | None -> fail "no feasible solution on the paper example"
  | Some (_, cost) -> check flt "matches exact optimum" (snd exact) cost

let prop_burkard_feasible_results =
  QCheck.Test.make ~name:"burkard best_feasible is really feasible" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_tiny_problem seed in
      let config = { Burkard.Config.default with Burkard.Config.iterations = 25 } in
      let result = Burkard.solve ~config problem in
      match result.Burkard.best_feasible with
      | None -> true
      | Some (a, cost) ->
        Problem.feasible problem a
        && Float.abs (cost -. Problem.objective problem a) < 1e-6)

let prop_burkard_never_beats_exact =
  QCheck.Test.make ~name:"burkard never beats the exact optimum" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_tiny_problem seed in
      let config = { Burkard.Config.default with Burkard.Config.iterations = 25 } in
      let result = Burkard.solve ~config problem in
      match (Exact.solve problem, result.Burkard.best_feasible) with
      | Some (_, opt), Some (_, cost) -> cost >= opt -. 1e-6
      | None, Some _ -> false (* found feasible where none exists?! *)
      | _, None -> true)

let test_burkard_respects_initial () =
  let problem = paper_example () in
  let initial = [| 0; 1; 1 |] in
  (* initial is feasible: its objective is an upper bound on the result *)
  let result = Burkard.solve ~initial problem in
  match result.Burkard.best_feasible with
  | None -> fail "feasible initial lost"
  | Some (_, cost) -> check Alcotest.bool "no worse than start"
      (cost <= Problem.objective problem initial +. 1e-9) true

(* [Assignment.check] tests only the range; the length is checked on
   its own, with a message that names it *)
let test_burkard_rejects_wrong_length_initial () =
  let problem = paper_example () in
  List.iter
    (fun initial ->
      match Burkard.solve ~initial problem with
      | _ -> fail (Printf.sprintf "initial of length %d accepted" (Array.length initial))
      | exception Invalid_argument msg ->
        check Alcotest.bool
          (Printf.sprintf "message names the length: %S" msg)
          true
          (String.starts_with ~prefix:"Burkard.solve: initial assignment has length" msg))
    [ [| 0; 1 |]; [| 0; 1; 1; 0 |]; [||] ]

let test_burkard_history_length () =
  let problem = paper_example () in
  let config = { Burkard.Config.default with Burkard.Config.iterations = 7 } in
  let result = Burkard.solve ~config problem in
  check Alcotest.int "history length" 7 (List.length result.Burkard.history);
  List.iteri
    (fun idx it -> check Alcotest.int "iteration numbering" (idx + 1) it.Burkard.k)
    result.Burkard.history

let test_burkard_deterministic () =
  let problem = random_tiny_problem 7 in
  let r1 = Burkard.solve problem and r2 = Burkard.solve problem in
  check flt "same cost" r1.Burkard.best_cost r2.Burkard.best_cost;
  check Alcotest.bool "same assignment" true (Assignment.equal r1.Burkard.best r2.Burkard.best)

let test_initial_feasible () =
  let problem = paper_example () in
  match Burkard.initial_feasible problem with
  | None -> fail "no initial feasible on the paper example"
  | Some a -> check Alcotest.bool "feasible" true (Problem.feasible problem a)

let test_paper_config_runs () =
  (* the literal paper variant still produces valid output *)
  let problem = paper_example () in
  let config = { Burkard.Config.paper with Burkard.Config.iterations = 50 } in
  let result = Burkard.solve ~config problem in
  match result.Burkard.best_feasible with
  | None -> fail "paper config found nothing feasible on the toy example"
  | Some (a, _) -> check Alcotest.bool "feasible" true (Problem.feasible problem a)

(* ------------------------------------------------------------------ *)
(* The Burkard loop against the loop it replaced (DESIGN.md D24).      *)

(* [Burkard.solve] and its workspace as they stood before a step whose
   input repeats reused its previous answer.  Verbatim but for the
   module aliases and the GAP race, which no longer exists. *)
module Old_loop = struct
  open Burkard
  module Gap = Qbpart_gap.Gap
  module Dompool = Qbpart_pool.Dompool

  module Workspace = struct
    type t = {
      ws_m : int;
      ws_n : int;
      h : float array;          (* m*n, STEP-5 accumulated direction *)
      gap : Gap.t;              (* cost = the row cache, w(i,j) = s_j *)
      omega : Qmatrix.omega_memo; (* the omega entries xi has read *)
      mthg : Mthg.workspace;
      u : int array;            (* n, the current iterate *)
      rows : Repair.cache;      (* candidate rows on the round's surface:
                                   the Solver-rule eta *)
      strict_rows : Repair.cache; (* ... and on the strict surface *)
      pool : Dompool.t;         (* intra-solve fan-out: eta row refreshes *)
    }

    let create ?(pool = Dompool.sequential) problem =
      let problem = Problem.normalize problem in
      let m = Problem.m problem and n = Problem.n problem in
      let sizes = Netlist.sizes problem.Problem.netlist in
      let rows = Repair.cache ~m ~n in
      {
        ws_m = m;
        ws_n = n;
        h = Array.make (m * n) 0.0;
        gap =
          Gap.borrow ~cost:(Repair.rows rows) ~weight:(Gap.uniform_weights ~sizes ~m)
            ~capacity:(Topology.capacities problem.Problem.topology) ~n;
        omega = Qmatrix.omega_memo ~m ~n;
        mthg = Mthg.workspace ~m ~n;
        u = Array.make n 0;
        rows;
        strict_rows = Repair.cache ~m ~n;
        pool;
      }
  end

  let solve ?(config = Config.default) ?initial ?(should_stop = fun () -> false)
      ?(observe = fun _ -> ()) ?gap_solver ?workspace problem =
    let problem = Problem.normalize problem in
    let q = Qmatrix.make ~penalty:config.Config.penalty problem in
    let m = Problem.m problem and n = Problem.n problem in
    let ws =
      match workspace with
      | None -> Workspace.create problem
      | Some w ->
        if w.Workspace.ws_m <> m || w.Workspace.ws_n <> n then
          invalid_arg
            (Printf.sprintf "Burkard.solve: workspace is %dx%d but problem is %dx%d"
               w.Workspace.ws_m w.Workspace.ws_n m n);
        w
    in
    (* STEP 3's eta.  Under the Solver rule it is the round's row cache:
       the same m·N surface the polish reads, so STEP 3 only recomputes
       the rows that the jump and the polish invalidated (DESIGN.md D17).
       The Paper rule's column sums are not candidate rows; that ablation
       recomputes them into a buffer of its own every iteration. *)
    let eta =
      match config.Config.rule with
      | Qmatrix.Solver -> Repair.rows ws.Workspace.rows
      | Qmatrix.Paper -> Array.make (m * n) 0.0
    in
    (* The GAP instances of STEP 4 and STEP 6 alias eta and h directly as
       their (flat, item-major) cost matrices and share the workspace's
       uniform weights w_ij = s_j, so an inner solve costs no setup at
       all, and MTHG's memo of the cost-independent constructions serves
       both steps of every round. *)
    let gap_eta =
      match config.Config.rule with
      | Qmatrix.Solver -> ws.Workspace.gap
      | Qmatrix.Paper -> Gap.with_cost ws.Workspace.gap eta
    in
    let gap_h = Gap.with_cost ws.Workspace.gap ws.Workspace.h in
    Array.fill ws.Workspace.h 0 (m * n) 0.0;
    let default_gap gap =
      Mthg.solve_relaxed ~ws:ws.Workspace.mthg ~criteria:config.Config.gap_criteria
        ~improve:config.Config.gap_improve gap
    in
    let solve_gap ~step ~k gap =
      match gap_solver with
      | None -> default_gap gap
      | Some f -> f ~step ~k ~default:default_gap gap
    in
    let u = ws.Workspace.u in
    (match initial with
    | Some a ->
      if Array.length a <> n then
        invalid_arg
          (Printf.sprintf "Burkard.solve: initial assignment has length %d, expected %d"
             (Array.length a) n);
      Assignment.check ~m a;
      Array.blit a 0 u 0 n
    | None ->
      let r = Assignment.random (Rng.create config.Config.seed) ~n ~m in
      Array.blit r 0 u 0 n);
    (* penalized cost and violation count of [a], computed from scratch;
       bit-identical to [Problem.penalized_objective] (which is defined
       as objective + penalty · violation count). *)
    let evaluate a =
      let v = Qmatrix.violations q a in
      (Problem.objective problem a +. (config.Config.penalty *. float_of_int v), v)
    in
    (* Champions live in owned buffers updated by blit, so the hot loop
       never allocates for a losing candidate (and copies only on
       improvement). *)
    let best = Array.make n 0 in
    let best_cost = ref infinity in
    let best_feasible_buf = Array.make n 0 in
    let best_feasible_cost = ref None in
    (* STEP 7.  [known] carries an incrementally-maintained
       (penalized cost, violation count) for [a] when the caller has one
       (the delta-tracked polish path), avoiding the full recompute. *)
    let consider ?known a =
      let c, viol = match known with Some cv -> cv | None -> evaluate a in
      if c < !best_cost then begin
        best_cost := c;
        Array.blit a 0 best 0 n
      end;
      let feas = viol = 0 && Problem.capacity_feasible problem a in
      if feas then begin
        (* violation-free ⇒ penalized cost = plain objective.  The
           selection compares the (possibly delta-accumulated) [c], but
           the stored champion cost is re-evaluated from scratch:
           adoption is rare, and the reported objective must match an
           independent recomputation bit-for-bit (Certify's audit). *)
        match !best_feasible_cost with
        | Some obj' when obj' <= c -> ()
        | _ ->
          best_feasible_cost := Some (Problem.objective problem a);
          Array.blit a 0 best_feasible_buf 0 n
      end;
      (c, feas)
    in
    ignore (consider u);
    let h = ws.Workspace.h in
    let history = ref [] in
    let strict_q =
      let memo = ref None in
      fun () ->
        match !memo with
        | Some s -> s
        | None ->
          let s = Qmatrix.make ~penalty:1e12 problem in
          memo := Some s;
          s
    in
    (* one candidate-row cache per penalty surface: the polish, the
       probe and the tail reuse every row no move has touched since.
       (Wrapped once here, so no iteration allocates the option.) *)
    let rows = Some ws.Workspace.rows and strict_rows = Some ws.Workspace.strict_rows in
    let polish ~strict ~passes a =
      if strict then Repair.polish ?cache:strict_rows (strict_q ()) a ~passes
      else Repair.polish ?cache:rows q a ~passes
    in
    let to_feasible a ~rounds = Repair.to_feasible ?cache:strict_rows (strict_q ()) a ~rounds in
    let interrupted = ref false in
    let stop () =
      if not !interrupted then interrupted := should_stop ();
      !interrupted
    in
    let k = ref 1 in
    while (not (stop ())) && !k <= config.Config.iterations do
      let k0 = !k in
      (* STEP 3: eta at the iterate *)
      (match config.Config.rule with
      | Qmatrix.Solver -> Repair.refresh ws.Workspace.rows q u ~pool:ws.Workspace.pool
      | Qmatrix.Paper -> Qmatrix.eta_into ~rule:Qmatrix.Paper ~pool:ws.Workspace.pool q u eta);
      (* xi reads the omega entries at the iterate, each computed once
         per call: the memo is bound to this call's [q] *)
      let xi = Qmatrix.xi ~rule:config.Config.rule q ws.Workspace.omega u in
      (* STEP 4: minimize the linearization over S (cost aliases eta) *)
      let u_z = solve_gap ~step:Step4 ~k:k0 gap_eta in
      let z = ref 0.0 in
      for j = 0 to n - 1 do
        z := !z +. eta.(u_z.(j) + (j * m))
      done;
      (* STEP 5: accumulate the direction *)
      let scale = Float.max 1.0 (Float.abs (!z -. xi)) in
      for r = 0 to (m * n) - 1 do
        h.(r) <- h.(r) +. (eta.(r) /. scale)
      done;
      (* STEP 6: next iterate from the accumulated direction (cost
         aliases h); the pooled GAP result is blitted into the stable
         iterate before the next inner solve reuses its buffer *)
      let u6 = solve_gap ~step:Step6 ~k:k0 gap_h in
      Array.blit u6 0 u 0 n;
      (* mid-step checkpoint: a deadline firing here abandons the
         in-flight iterate — the best-so-far from STEP 7 of previous
         iterations is what the caller gets *)
      if not (stop ()) then begin
        (* Polish with delta tracking: one full evaluation of the fresh
           GAP iterate, then every descent move updates (cost, violations)
           in O(deg), so STEP 7 below needs no recompute. *)
        let known =
          let c0, v0 = evaluate u in
          let dc, dv = Repair.polish_tracked ?cache:rows q u ~passes:config.Config.polish_passes in
          (c0 +. dc, v0 + dv)
        in
        (* Feasibility probe (our enhancement, DESIGN.md D6): coordinate
           descent under an effectively infinite penalty pulls the iterate
           toward the timing-feasible set without disturbing the Burkard
           trajectory itself. *)
        if
          config.Config.repair_every > 0
          && (k0 mod config.Config.repair_every = 0 || k0 = config.Config.iterations)
          && not (Constraints.empty problem.Problem.constraints)
        then begin
          let probe = Assignment.copy u in
          ignore (to_feasible probe ~rounds:6 : bool);
          ignore (consider probe)
        end;
        (* STEP 7 *)
        let penalized, feasible = consider ~known u in
        let viol = snd known in
        let it =
          {
            k = k0;
            z = !z;
            penalized;
            objective = penalized -. (config.Config.penalty *. float_of_int viol);
            feasible;
          }
        in
        history := it :: !history;
        observe it;
        incr k
      end
    done;
    if config.Config.final_polish > 0 && not !interrupted then begin
      let final = Assignment.copy best in
      polish ~strict:false ~passes:config.Config.final_polish final;
      ignore (consider final);
      (* also try to push the penalized champion all the way to
         feasibility — repair moves may cost a little objective but can
         mint a better feasible solution than any iterate produced *)
      if not (Constraints.empty problem.Problem.constraints) then begin
        let repaired = Assignment.copy best in
        if to_feasible repaired ~rounds:10 then ignore (consider repaired)
      end;
      (* Polish the feasible champion under an effectively infinite
         penalty: improving moves can then never introduce a timing
         violation, so feasibility is preserved by construction. *)
      match !best_feasible_cost with
      | None -> ()
      | Some _ ->
        let final = Assignment.copy best_feasible_buf in
        polish ~strict:true ~passes:config.Config.final_polish final;
        ignore (consider final)
    end;
    {
      best;
      best_cost = !best_cost;
      best_feasible = Option.map (fun c -> (best_feasible_buf, c)) !best_feasible_cost;
      history = List.rev !history;
      interrupted = !interrupted;
    }
end

(* Table III's shape at N <= 40 — a 2x2 or 4x4 grid, slack near 1.08,
   about one budget per component — on which the loop settles and
   repeats its iterates, with fractional wire weights and P so that a
   cost summed in another order differs in its last bits. *)
let settling_problem seed =
  let rng = Rng.create seed in
  let n = 12 + Rng.int rng 29 in
  let g = Generator.generate rng (Generator.default_params ~n ~wires:(3 * n)) in
  let nl = Reweight.netlist g (fun w -> (0.37 *. Wire.weight w) +. Rng.float rng 0.61) in
  let rows, cols = if Rng.int rng 2 = 0 then (2, 2) else (4, 4) in
  let m = rows * cols in
  let capacity = Netlist.total_size nl /. float_of_int m *. (1.04 +. Rng.float rng 0.1) in
  let topo = Grid.make ~rows ~cols ~capacity () in
  let cons = Constraints.Builder.create ~n in
  for _ = 1 to n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then Constraints.Builder.add cons j1 j2 (float_of_int (1 + Rng.int rng 3))
  done;
  let p = Array.init m (fun _ -> Array.init n (fun _ -> Rng.float rng 0.7)) in
  Problem.make ~p ~constraints:(Constraints.Builder.build cons) nl topo

let bits = Int64.bits_of_float

let same_result (a : Burkard.result) (b : Burkard.result) =
  let same_iteration (x : Burkard.iteration) (y : Burkard.iteration) =
    x.Burkard.k = y.Burkard.k
    && bits x.Burkard.z = bits y.Burkard.z
    && bits x.Burkard.penalized = bits y.Burkard.penalized
    && bits x.Burkard.objective = bits y.Burkard.objective
    && x.Burkard.feasible = y.Burkard.feasible
  in
  Assignment.equal a.Burkard.best b.Burkard.best
  && bits a.Burkard.best_cost = bits b.Burkard.best_cost
  && (match (a.Burkard.best_feasible, b.Burkard.best_feasible) with
     | None, None -> true
     | Some (x, c), Some (y, d) -> Assignment.equal x y && bits c = bits d
     | _ -> false)
  && List.length a.Burkard.history = List.length b.Burkard.history
  && List.for_all2 same_iteration a.Burkard.history b.Burkard.history
  && a.Burkard.interrupted = b.Burkard.interrupted

(* A [gap_solver] that logs every call it sees and passes it on; at
   STEP 4 it also solves the instance again on a fresh workspace and
   notes any answer that differs. *)
let logging_hook (config : Burkard.Config.t) ~m ~n log fresh_ok ~step ~k ~default gap =
  log := (step, k) :: !log;
  let a = default gap in
  if step = Burkard.Step4 then begin
    let fresh =
      Mthg.solve_relaxed ~ws:(Mthg.workspace ~m ~n) ~criteria:config.Burkard.Config.gap_criteria
        ~improve:config.Burkard.Config.gap_improve gap
    in
    if fresh <> a then fresh_ok := false
  end;
  a

let reuse_configs =
  let base = { Burkard.Config.default with Burkard.Config.iterations = 40 } in
  [
    base;
    { Burkard.Config.paper with Burkard.Config.iterations = 40 };
    { base with Burkard.Config.gap_improve = `Shift_and_swap; repair_every = 1 };
  ]

(* The loop on its own trajectory: with and without a workspace (one
   workspace serving every configuration in turn), from a random start,
   bit for bit the old loop's result, with the same GAP calls, and
   every STEP-4 answer that of a fresh solve.  The draws must repeat
   STEP-6 answers, or nothing was reused. *)
let test_burkard_reuse_matches_old_loop () =
  let repeats = ref 0 in
  for seed = 1 to 12 do
    let problem = settling_problem seed in
    let m = Problem.m problem and n = Problem.n problem in
    let workspace = Burkard.Workspace.create problem in
    List.iter
      (fun config ->
        let config = { config with Burkard.Config.seed } in
        let run solve =
          let log = ref [] and fresh_ok = ref true and last6 = ref [||] in
          let hook ~step ~k ~default gap =
            let a = logging_hook config ~m ~n log fresh_ok ~step ~k ~default gap in
            if step = Burkard.Step6 then begin
              if a = !last6 then incr repeats;
              last6 := Array.copy a
            end;
            a
          in
          let r = solve ~gap_solver:hook in
          (r, List.rev !log, !fresh_ok)
        in
        let old, old_log, _ = run (fun ~gap_solver -> Old_loop.solve ~config ~gap_solver problem) in
        List.iter
          (fun workspace ->
            let r, log, fresh_ok =
              run (fun ~gap_solver -> Burkard.solve ~config ~gap_solver ?workspace problem)
            in
            let fail what =
              Alcotest.failf "seed %d, %s rule, %s workspace: %s" seed
                (match config.Burkard.Config.rule with
                | Qmatrix.Solver -> "solver"
                | Qmatrix.Paper -> "paper")
                (if workspace = None then "no" else "shared")
                what
            in
            if not (same_result old r) then fail "results differ";
            if log <> old_log then fail "the hook saw other calls";
            if not fresh_ok then fail "a STEP-4 answer differs from a fresh solve")
          [ None; Some workspace ])
      reuse_configs
  done;
  if !repeats < 50 then Alcotest.failf "only %d repeated STEP-6 answers" !repeats

(* The reuse keys belong to one solve, whose q is fixed.  A one-iteration
   solve at a small penalty leaves its STEP-4 key at [u0]; the next
   solve on the same workspace starts from [u0] at a far larger
   penalty, so its eta, and its STEP-4 answer, differ. *)
let test_burkard_reuse_keys_per_solve () =
  for seed = 1 to 12 do
    let problem = settling_problem seed in
    let m = Problem.m problem and n = Problem.n problem in
    let u0 = Assignment.random (Rng.create seed) ~n ~m in
    let workspace = Burkard.Workspace.create problem in
    let config penalty iterations =
      { Burkard.Config.default with Burkard.Config.penalty; iterations }
    in
    let first = config 0.5 1 and second = config 5000.0 6 in
    ignore (Burkard.solve ~config:first ~initial:u0 ~workspace problem : Burkard.result);
    let log = ref [] and fresh_ok = ref true in
    let r =
      Burkard.solve ~config:second ~initial:u0 ~workspace
        ~gap_solver:(logging_hook second ~m ~n log fresh_ok)
        problem
    in
    if not (same_result (Old_loop.solve ~config:second ~initial:u0 problem) r && !fresh_ok) then
      Alcotest.failf "seed %d: the second solve differs from the old loop" seed
  done

(* Tiny instances on which a probe's outcome depends on where it
   starts: up to six components of size 1 or 2 on a 1x2 or 1x3 grid,
   integer P and wire weights, and budgets of 0 or 1 between random
   pairs. *)
let tiny_timing_problem rng =
  let n = 3 + Rng.int rng 4 and m = 2 + Rng.int rng 2 in
  let b = Netlist.Builder.create () in
  for k = 0 to n - 1 do
    ignore
      (Netlist.Builder.add_component b ~name:(string_of_int k)
         ~size:(float_of_int (1 + Rng.int rng 2)) ())
  done;
  for _ = 1 to Rng.int rng n do
    let x = Rng.int rng n and y = Rng.int rng n in
    if x <> y then Netlist.Builder.add_wire b x y ~weight:(float_of_int (1 + Rng.int rng 3)) ()
  done;
  let nl = Netlist.Builder.build b in
  let capacity = Netlist.total_size nl /. float_of_int m *. (1.0 +. Rng.float rng 0.4) in
  let topo = Grid.make ~rows:1 ~cols:m ~capacity () in
  let cons = Constraints.Builder.create ~n in
  for _ = 0 to Rng.int rng n do
    let x = Rng.int rng n and y = Rng.int rng n in
    if x <> y then Constraints.Builder.add cons x y (float_of_int (Rng.int rng 2))
  done;
  let p = Array.init m (fun _ -> Array.init n (fun _ -> float_of_int (Rng.int rng 4))) in
  Problem.make ~p ~constraints:(Constraints.Builder.build cons) nl topo

(* A trajectory forced through the [gap_solver] hook: STEP 6 returns a
   scripted sequence over two placements [a] and [a'] that differ in
   one component only, with a probe at every iteration, no final
   polish (so the probes' candidates decide the champions), and no
   polish (the iterate is STEP 6's answer) or one pass.  The repeats
   exercise every reuse; each change of one component must run the
   probe again.  Every component takes its turn as the one that
   differs, at every other partition. *)
let test_burkard_reuse_forced_trajectory () =
  for seed = 1 to 150 do
    let rng = Rng.create seed in
    let problem = tiny_timing_problem rng in
    let m = Problem.m problem and n = Problem.n problem in
    let a = Assignment.random rng ~n ~m in
    for r = 0 to (n * m) - 1 do
      let j = r / m and i = r mod m in
      if i <> a.(j) then begin
        let a' = Array.copy a in
        a'.(j) <- i;
        let script = [| a; a; a'; a; a'; a'; a; a' |] in
        List.iter
          (fun polish_passes ->
            let config =
              {
                Burkard.Config.default with
                Burkard.Config.iterations = Array.length script;
                polish_passes;
                repair_every = 1;
                final_polish = 0;
              }
            in
            let gap_solver ~step ~k ~default gap =
              let answer = default gap in
              match step with
              | Burkard.Step4 -> answer
              | Burkard.Step6 -> Array.copy script.(k - 1)
            in
            let old = Old_loop.solve ~config ~initial:a ~gap_solver problem in
            let r = Burkard.solve ~config ~initial:a ~gap_solver problem in
            if not (same_result old r) then
              Alcotest.failf "seed %d, component %d at %d, %d polish passes: results differ"
                seed j i polish_passes)
          [ 0; 1 ]
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Repair *)

let test_repair_polish_monotone () =
  let problem = random_tiny_problem 11 in
  let q = Qmatrix.make ~penalty:50.0 problem in
  let m = Problem.m problem and n = Problem.n problem in
  let u = Assignment.random (Rng.create 5) ~n ~m in
  let before = Problem.penalized_objective problem ~penalty:50.0 u in
  Repair.polish q u ~passes:20;
  let after = Problem.penalized_objective problem ~penalty:50.0 u in
  check Alcotest.bool "polish does not increase penalized cost" true (after <= before +. 1e-6)

let test_repair_to_feasible_on_easy () =
  let problem = paper_example () in
  let q = Qmatrix.make ~penalty:1e12 problem in
  let u = [| 0; 3; 0 |] in
  (* a-b at distance 2 violates D_C = 1 *)
  check Alcotest.bool "initially infeasible" false (Problem.timing_feasible problem u);
  let ok = Repair.to_feasible q u ~rounds:5 in
  check Alcotest.bool "repaired" true ok;
  check Alcotest.bool "feasible now" true (Problem.timing_feasible problem u)

let test_repair_pair_pass_fixes_locked_pair () =
  (* Construct a situation where neither endpoint can move alone:
     two heavy mutual wires pin a and c to their partners... simpler:
     a pair that must relocate jointly because each single move is
     blocked by the OTHER constraint being created. *)
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.add_component b ~name:"x" ~size:1.0 () in
  let y = Netlist.Builder.add_component b ~name:"y" ~size:1.0 () in
  Netlist.Builder.add_wire b x y ();
  let nl = Netlist.Builder.build b in
  let topo = Grid.make ~rows:1 ~cols:4 ~capacity:1.0 () in
  let cons = Constraints.Builder.create ~n:2 in
  Constraints.Builder.add_sym cons x y 1.0;
  let problem = Problem.make ~constraints:(Constraints.Builder.build cons) nl topo in
  (* x at 0, y at 3: violated; capacity 1 means neither can join the
     other's slot, and slots 1,2 are free: x->1 alone still has
     d(1,3)=2>1, y->2 alone d(0,2)=2>1 — only the joint move x->1,y->2
     (or x->2,y->1 etc.) fixes it. *)
  let u = [| 0; 3 |] in
  let q = Qmatrix.make ~penalty:1e12 problem in
  let ok = Repair.to_feasible q u ~rounds:5 in
  check Alcotest.bool "pair repair reached feasibility" true ok;
  check Alcotest.bool "capacity kept" true (Problem.capacity_feasible problem u)

(* ------------------------------------------------------------------ *)
(* Branch and bound *)

let test_bnb_matches_enumeration () =
  for seed = 1 to 8 do
    let problem = random_tiny_problem seed in
    let enum = Exact.solve problem in
    let bnb = Bnb.solve problem in
    check Alcotest.bool "complete" true bnb.Bnb.complete;
    match (enum, bnb.Bnb.best) with
    | None, None -> ()
    | Some (_, c1), Some (_, c2) ->
      check flt (Printf.sprintf "optimum (seed %d)" seed) c1 c2
    | Some _, None -> fail "bnb missed a feasible instance"
    | None, Some _ -> fail "bnb invented a feasible solution"
  done

let test_bnb_solution_feasible () =
  let problem = random_tiny_problem 33 in
  match (Bnb.solve problem).Bnb.best with
  | None -> ()
  | Some (a, cost) ->
    check Alcotest.bool "feasible" true (Problem.feasible problem a);
    check flt "cost consistent" (Problem.objective problem a) cost

let test_bnb_medium_beats_heuristic_sanity () =
  (* On a dense 20-component instance every heuristic (QBP, GFM, GKL
     alike) sits in a local optimum tens of percent above the true
     optimum — relative gaps on toys this small say little.  The exact
     solver provides the one hard guarantee worth testing: the
     heuristic can never do better, and must stay within a sane band. *)
  let rng = Rng.create 77 in
  let nl = Generator.generate rng (Generator.default_params ~n:20 ~wires:200) in
  let topo =
    Grid.make ~rows:2 ~cols:2 ~capacity:(Netlist.total_size nl /. 4.0 *. 1.4) ()
  in
  let problem = Problem.make nl topo in
  let bnb = Bnb.solve problem in
  check Alcotest.bool "complete at n=20" true bnb.Bnb.complete;
  match (bnb.Bnb.best, (Burkard.solve problem).Burkard.best_feasible) with
  | Some (_, opt), Some (_, heur) ->
    check Alcotest.bool "heuristic >= optimum" true (heur >= opt -. 1e-6);
    check Alcotest.bool "heuristic within 50%" true (heur <= (opt *. 1.5) +. 1e-6)
  | _ -> fail "both solvers should succeed here"

let test_bnb_node_limit () =
  let problem = random_tiny_problem 3 in
  let r = Bnb.solve ~node_limit:2 problem in
  check Alcotest.bool "budget respected" true (r.Bnb.nodes <= 3);
  check Alcotest.bool "incomplete" false r.Bnb.complete

(* ------------------------------------------------------------------ *)
(* Adaptive penalty continuation *)

let test_adaptive_reduces_to_single_round_without_timing () =
  let nl = (paper_example ()).Problem.netlist in
  let topo = (paper_example ()).Problem.topology in
  let problem = Problem.make nl topo in
  let r = Adaptive.solve problem in
  check Alcotest.int "one round" 1 (List.length r.Adaptive.rounds)

let test_adaptive_finds_feasible () =
  let problem = paper_example () in
  let r = Adaptive.solve problem in
  match r.Adaptive.best_feasible with
  | None -> fail "adaptive found nothing feasible on the toy example"
  | Some (a, cost) ->
    check Alcotest.bool "feasible" true (Problem.feasible problem a);
    check flt "cost consistent" (Problem.objective problem a) cost

let test_adaptive_escalates () =
  let problem = paper_example () in
  let config = { Burkard.Config.default with Burkard.Config.iterations = 3 } in
  let r = Adaptive.solve ~config ~max_rounds:3 ~factor:10.0 problem in
  let penalties = List.map (fun (x : Adaptive.round) -> x.Adaptive.penalty) r.Adaptive.rounds in
  (match penalties with
  | p1 :: p2 :: _ -> check flt "factor applied" (p1 *. 10.0) p2
  | [ _ ] -> () (* stopped after the first round: feasible and unimproved *)
  | [] -> fail "no rounds recorded");
  check Alcotest.bool "round budget respected" true (List.length penalties <= 3)

let test_adaptive_validation () =
  let problem = paper_example () in
  (try
     ignore (Adaptive.solve ~max_rounds:0 problem);
     fail "max_rounds 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Adaptive.solve ~factor:1.0 problem);
    fail "factor 1 accepted"
  with Invalid_argument _ -> ()

let prop_adaptive_never_worse_than_plain =
  QCheck.Test.make ~name:"adaptive >= plain burkard feasible quality" ~count:8
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_tiny_problem seed in
      let config = { Burkard.Config.default with Burkard.Config.iterations = 15 } in
      let plain = Burkard.solve ~config problem in
      let adaptive = Adaptive.solve ~config problem in
      match (plain.Burkard.best_feasible, adaptive.Adaptive.best_feasible) with
      | Some (_, p), Some (_, a) -> a <= p +. 1e-6
      | Some _, None -> false (* adaptive must keep what round 1 found *)
      | None, _ -> true)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "qbp"
    [
      ( "qmatrix",
        [
          Alcotest.test_case "matches paper section 3.3" `Quick test_qhat_matches_paper;
          Alcotest.test_case "value invariant" `Quick test_qhat_value_invariant;
          Alcotest.test_case "embeddings coincide over F_R" `Quick
            test_penalized_objective_coincides_on_feasible;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "theorem-1 penalty bound" `Quick test_theorem1_penalty_bound;
          Alcotest.test_case "region membership" `Quick test_in_region;
          q prop_theorem1;
          q prop_theorem2;
          q prop_qap_special_case;
        ] );
      ( "eta-omega",
        [
          q prop_eta_paper_is_column_sum;
          q prop_eta_solver_matches_move_delta;
          q prop_omega_bounds_eta;
          q prop_candidate_costs_is_eta_slice;
          q prop_pair_pass_monotone;
        ] );
      ( "problem",
        [
          Alcotest.test_case "normalize" `Quick test_problem_normalize;
          Alcotest.test_case "deviation P" `Quick test_problem_deviation_p;
          Alcotest.test_case "validation" `Quick test_problem_validation;
        ] );
      ( "burkard",
        [
          Alcotest.test_case "paper example optimum" `Quick
            test_burkard_finds_paper_example_optimum;
          Alcotest.test_case "respects initial" `Quick test_burkard_respects_initial;
          Alcotest.test_case "rejects wrong-length initial" `Quick
            test_burkard_rejects_wrong_length_initial;
          Alcotest.test_case "history" `Quick test_burkard_history_length;
          Alcotest.test_case "deterministic" `Quick test_burkard_deterministic;
          Alcotest.test_case "initial_feasible" `Quick test_initial_feasible;
          Alcotest.test_case "paper config" `Quick test_paper_config_runs;
          q prop_burkard_feasible_results;
          q prop_burkard_never_beats_exact;
          Alcotest.test_case "reuse equals the old loop" `Quick
            test_burkard_reuse_matches_old_loop;
          Alcotest.test_case "reuse keys belong to one solve" `Quick
            test_burkard_reuse_keys_per_solve;
          Alcotest.test_case "reuse on a forced trajectory" `Quick
            test_burkard_reuse_forced_trajectory;
        ] );
      ( "repair",
        [
          Alcotest.test_case "polish monotone" `Quick test_repair_polish_monotone;
          Alcotest.test_case "to_feasible easy" `Quick test_repair_to_feasible_on_easy;
          Alcotest.test_case "pair repair" `Quick test_repair_pair_pass_fixes_locked_pair;
        ] );
      ( "bnb",
        [
          Alcotest.test_case "matches enumeration" `Quick test_bnb_matches_enumeration;
          Alcotest.test_case "feasible solutions" `Quick test_bnb_solution_feasible;
          Alcotest.test_case "n=20 vs heuristic" `Quick test_bnb_medium_beats_heuristic_sanity;
          Alcotest.test_case "node limit" `Quick test_bnb_node_limit;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "single round without timing" `Quick
            test_adaptive_reduces_to_single_round_without_timing;
          Alcotest.test_case "finds feasible" `Quick test_adaptive_finds_feasible;
          Alcotest.test_case "escalates penalty" `Quick test_adaptive_escalates;
          Alcotest.test_case "validation" `Quick test_adaptive_validation;
          q prop_adaptive_never_worse_than_plain;
        ] );
    ]
