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
