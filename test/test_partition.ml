(* Tests for assignments, evaluation, validation and initial-solution
   construction. *)

open Qbpart_partition
module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints

let check = Alcotest.check
let fail = Alcotest.fail
let flt = Alcotest.float 1e-9

let triangle () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_component b ~name:"a" ~size:1.0 () in
  let c = Netlist.Builder.add_component b ~name:"b" ~size:2.0 () in
  let d = Netlist.Builder.add_component b ~name:"c" ~size:3.0 () in
  Netlist.Builder.add_wire b a c ~weight:5.0 ();
  Netlist.Builder.add_wire b c d ~weight:2.0 ();
  Netlist.Builder.build b

let topo = Grid.make ~rows:2 ~cols:2 ~capacity:10.0 ()

(* ------------------------------------------------------------------ *)
(* Assignment *)

let test_assignment_flat_roundtrip () =
  let a = [| 2; 0; 3; 1 |] in
  let y = Assignment.to_flat ~m:4 a in
  check Alcotest.int "flat length" 16 (Array.length y);
  let back = Assignment.of_flat ~m:4 ~n:4 y in
  check Alcotest.bool "roundtrip" true (Assignment.equal a back)

let test_assignment_flat_index () =
  (* r = i + j*M, the 0-based version of the paper's r = i + (j-1)M *)
  check Alcotest.int "index" 7 (Assignment.flat_index ~m:4 ~i:3 ~j:1);
  check Alcotest.(pair int int) "inverse" (3, 1) (Assignment.of_flat_index ~m:4 7)

let test_assignment_of_flat_c3 () =
  (* vector violating C3: component 0 assigned twice *)
  let y = Array.make 8 false in
  y.(0) <- true;
  y.(1) <- true;
  (try
     ignore (Assignment.of_flat ~m:2 ~n:4 y);
     fail "C3 double assignment accepted"
   with Invalid_argument _ -> ());
  let y = Array.make 8 false in
  y.(0) <- true;
  try
    ignore (Assignment.of_flat ~m:2 ~n:4 y);
    fail "C3 missing assignment accepted"
  with Invalid_argument _ -> ()

let test_assignment_loads () =
  let nl = triangle () in
  let loads = Assignment.loads nl ~m:4 [| 0; 0; 2 |] in
  check flt "load 0" 3.0 loads.(0);
  check flt "load 2" 3.0 loads.(2);
  check flt "load empty" 0.0 loads.(1)

let test_partition_members () =
  let members = Assignment.partition_members ~m:3 [| 2; 0; 2; 1 |] in
  check Alcotest.(list int) "members 2" [ 0; 2 ] members.(2);
  check Alcotest.(list int) "members 0" [ 1 ] members.(0)

let test_assignment_check () =
  try
    Assignment.check ~m:2 [| 0; 2 |];
    fail "out of range accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Evaluate *)

let test_wirelength () =
  let nl = triangle () in
  (* a at 0, b at 3 (dist 2), c at 3: 5*2 + 2*0 = 10 *)
  check flt "wirelength" 10.0 (Evaluate.wirelength nl topo [| 0; 3; 3 |]);
  check flt "all together" 0.0 (Evaluate.wirelength nl topo [| 1; 1; 1 |])

let test_linear () =
  let p = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |]; [| 0.; 0.; 0. |]; [| 9.; 9.; 9. |] |] in
  check flt "linear" (1. +. 5. +. 9.) (Evaluate.linear ~p [| 0; 1; 3 |])

let test_objective_scaling () =
  let nl = triangle () in
  let p = Array.make_matrix 4 3 1.0 in
  let a = [| 0; 3; 3 |] in
  let base = Evaluate.objective ~p nl topo a in
  check flt "alpha=beta=1" 13.0 base;
  check flt "alpha=2" 16.0 (Evaluate.objective ~alpha:2.0 ~p nl topo a);
  check flt "beta=0" 3.0 (Evaluate.objective ~beta:0.0 ~p nl topo a);
  check flt "no p" 10.0 (Evaluate.objective nl topo a)

let test_penalized () =
  let nl = triangle () in
  let c = Constraints.Builder.create ~n:3 in
  Constraints.Builder.add c 0 1 1.0;
  let c = Constraints.Builder.build c in
  (* a at 0, b at 3: d = 2 > 1, one violation *)
  let a = [| 0; 3; 3 |] in
  check flt "penalized" (10.0 +. 50.0) (Evaluate.penalized ~penalty:50.0 nl topo c a);
  check flt "feasible placement unpenalized" 5.0
    (Evaluate.penalized ~penalty:50.0 nl topo c [| 0; 1; 1 |])

let test_capacity () =
  let nl = triangle () in
  let small = Grid.make ~rows:2 ~cols:2 ~capacity:2.5 () in
  let a = [| 0; 0; 1 |] in
  (* load 0 = 3 > 2.5 *)
  let excess = Evaluate.capacity_excess nl small a in
  check flt "excess" 0.5 excess.(0);
  check Alcotest.bool "infeasible" false (Evaluate.capacity_feasible nl small a);
  let roomy = Grid.make ~rows:2 ~cols:2 ~capacity:3.0 () in
  check Alcotest.bool "feasible spread" true
    (Evaluate.capacity_feasible nl roomy [| 0; 1; 2 |])

let test_cut_metrics () =
  let nl = triangle () in
  check Alcotest.int "cut wires" 1 (Evaluate.cut_wires nl [| 0; 3; 3 |]);
  check flt "external weight" 5.0 (Evaluate.external_weight nl [| 0; 3; 3 |]);
  check Alcotest.int "no cut" 0 (Evaluate.cut_wires nl [| 1; 1; 1 |])

(* ------------------------------------------------------------------ *)
(* Validate *)

let test_validate () =
  let nl = triangle () in
  let c = Constraints.Builder.create ~n:3 in
  Constraints.Builder.add c 0 1 1.0;
  let c = Constraints.Builder.build c in
  let issues = Validate.check ~constraints:c nl topo [| 0; 3; 3 |] in
  check Alcotest.int "one timing issue" 1 (List.length issues);
  check Alcotest.bool "feasible without constraints" true
    (Validate.is_feasible nl topo [| 0; 3; 3 |]);
  let small = Grid.make ~rows:2 ~cols:2 ~capacity:2.5 () in
  (* partition 0 holds sizes 1+2=3 and partition 1 holds 3: both over 2.5 *)
  let issues = Validate.check nl small [| 0; 0; 1 |] in
  (match issues with
  | [ Validate.Capacity { partition = 0; _ }; Validate.Capacity { partition = 1; _ } ] -> ()
  | _ -> fail "expected two capacity issues");
  let issues = Validate.check nl topo [| 0; 9; 0 |] in
  match issues with
  | [ Validate.Out_of_range { j = 1; _ } ] -> ()
  | _ -> fail "expected out-of-range issue"

let test_assert_feasible () =
  let nl = triangle () in
  Validate.assert_feasible nl topo [| 0; 1; 2 |];
  try
    Validate.assert_feasible nl (Grid.make ~rows:2 ~cols:2 ~capacity:2.5 ()) [| 0; 0; 1 |];
    fail "assert_feasible passed on infeasible"
  with Failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Initial *)

let test_first_fit () =
  let nl = triangle () in
  let t = Grid.make ~rows:2 ~cols:2 ~capacity:3.0 () in
  match Initial.first_fit_decreasing nl t with
  | None -> fail "first fit failed"
  | Some a -> check Alcotest.bool "capacity feasible" true (Evaluate.capacity_feasible nl t a)

let test_first_fit_impossible () =
  let nl = triangle () in
  match Initial.first_fit_decreasing nl (Grid.make ~rows:2 ~cols:2 ~capacity:2.0 ()) with
  | None -> ()
  | Some _ -> fail "packed a size-3 component into capacity 2"

let test_greedy_feasible_with_constraints () =
  let rng = Rng.create 7 in
  let nl = Generator.generate rng (Generator.default_params ~n:60 ~wires:240) in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity:(Netlist.total_size nl /. 4.0 *. 1.3) () in
  (* constraints around a first-fit reference *)
  let reference = Option.get (Initial.first_fit_decreasing nl topo) in
  let c = Constraints.Builder.create ~n:60 in
  Array.iter
    (fun w ->
      let u = Qbpart_netlist.Wire.u w and v = Qbpart_netlist.Wire.v w in
      Constraints.Builder.add_sym c u v (Topology.d topo reference.(u) reference.(v) +. 1.0))
    (Netlist.wires nl);
  let c = Constraints.Builder.build c in
  match Initial.greedy_feasible ~constraints:c ~attempts:100 rng nl topo () with
  | None -> fail "greedy failed on a witnessed-feasible instance"
  | Some a -> Validate.assert_feasible ~constraints:c nl topo a

let prop_greedy_respects_capacity =
  QCheck.Test.make ~name:"greedy solutions always capacity-feasible" ~count:30
    QCheck.(int_range 0 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let nl = Generator.generate rng (Generator.default_params ~n:30 ~wires:60) in
      let t = Grid.make ~rows:2 ~cols:2 ~capacity:(Netlist.total_size nl /. 4.0 *. 1.4) () in
      match Initial.greedy_feasible ~attempts:20 rng nl t () with
      | None -> true (* allowed to fail; must not return garbage *)
      | Some a -> Evaluate.capacity_feasible nl t a)

let prop_random_assignment_in_range =
  QCheck.Test.make ~name:"random assignments satisfy C3 domain" ~count:50
    QCheck.(pair (int_range 1 50) (int_range 1 9))
    (fun (n, m) ->
      let a = Assignment.random (Rng.create (n * m)) ~n ~m in
      Array.for_all (fun i -> i >= 0 && i < m) a)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_compute () =
  let nl = triangle () in
  let c = Constraints.Builder.create ~n:3 in
  Constraints.Builder.add c 0 1 1.0;
  let c = Constraints.Builder.build c in
  let m = Metrics.compute ~constraints:c nl topo [| 0; 3; 3 |] in
  check flt "wirelength" 10.0 m.Metrics.wirelength;
  check Alcotest.int "cut wires" 1 m.Metrics.cut_wires;
  check flt "external weight" 5.0 m.Metrics.external_weight;
  check Alcotest.int "violations" 1 m.Metrics.timing_violations;
  check flt "worst slack" (-1.0) m.Metrics.worst_slack;
  check Alcotest.bool "infeasible" false m.Metrics.feasible;
  check flt "utilization of slot 3" 0.5 m.Metrics.utilization.(3);
  check flt "max utilization" 0.5 m.Metrics.max_utilization

let test_metrics_feasible_case () =
  let nl = triangle () in
  let m = Metrics.compute nl topo [| 0; 1; 1 |] in
  check Alcotest.bool "feasible" true m.Metrics.feasible;
  check Alcotest.int "no violations without constraints" 0 m.Metrics.timing_violations

let test_cut_matrix () =
  let nl = triangle () in
  let cm = Metrics.cut_matrix nl ~m:4 [| 0; 3; 3 |] in
  check flt "cut 0-3" 5.0 cm.(0).(3);
  check flt "symmetric" 5.0 cm.(3).(0);
  check flt "internal not counted" 0.0 cm.(3).(3);
  check flt "untouched pair" 0.0 cm.(1).(2)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "partition"
    [
      ( "assignment",
        [
          Alcotest.test_case "flat roundtrip" `Quick test_assignment_flat_roundtrip;
          Alcotest.test_case "flat index" `Quick test_assignment_flat_index;
          Alcotest.test_case "of_flat C3 check" `Quick test_assignment_of_flat_c3;
          Alcotest.test_case "loads" `Quick test_assignment_loads;
          Alcotest.test_case "members" `Quick test_partition_members;
          Alcotest.test_case "range check" `Quick test_assignment_check;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "wirelength" `Quick test_wirelength;
          Alcotest.test_case "linear" `Quick test_linear;
          Alcotest.test_case "objective scaling" `Quick test_objective_scaling;
          Alcotest.test_case "penalized" `Quick test_penalized;
          Alcotest.test_case "capacity" `Quick test_capacity;
          Alcotest.test_case "cut metrics" `Quick test_cut_metrics;
        ] );
      ( "validate",
        [
          Alcotest.test_case "check" `Quick test_validate;
          Alcotest.test_case "assert_feasible" `Quick test_assert_feasible;
        ] );
      ( "initial",
        [
          Alcotest.test_case "first fit" `Quick test_first_fit;
          Alcotest.test_case "first fit impossible" `Quick test_first_fit_impossible;
          Alcotest.test_case "greedy with constraints" `Quick
            test_greedy_feasible_with_constraints;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "compute" `Quick test_metrics_compute;
          Alcotest.test_case "feasible case" `Quick test_metrics_feasible_case;
          Alcotest.test_case "cut matrix" `Quick test_cut_matrix;
        ] );
      ("properties", [ q prop_greedy_respects_capacity; q prop_random_assignment_in_range ]);
    ]
