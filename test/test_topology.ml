(* Tests for partition topologies: the Topology type and the grid
   builders. *)

open Qbpart_topology

let check = Alcotest.check
let fail = Alcotest.fail
let flt = Alcotest.float 1e-9

let square2 =
  [| [| 0.; 1. |]; [| 1.; 0. |] |]

let test_make_accessors () =
  let t =
    Topology.make ~names:[| "a"; "b" |] ~capacities:[| 5.; 7. |] ~b:square2 ~d:square2 ()
  in
  check Alcotest.int "m" 2 (Topology.m t);
  check flt "capacity" 7.0 (Topology.capacity t 1);
  check flt "total capacity" 12.0 (Topology.total_capacity t);
  check flt "b" 1.0 (Topology.b t 0 1);
  check flt "d" 1.0 (Topology.d t 1 0);
  check Alcotest.string "name" "b" (Topology.name t 1)

let test_make_validation () =
  let expect_invalid f =
    try
      ignore (f ());
      fail "accepted invalid topology"
    with Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Topology.make ~capacities:[||] ~b:[||] ~d:[||] ());
  expect_invalid (fun () ->
      Topology.make ~capacities:[| 1.; 1. |] ~b:[| [| 0. |] |] ~d:square2 ());
  expect_invalid (fun () ->
      Topology.make ~capacities:[| 1.; -1. |] ~b:square2 ~d:square2 ());
  expect_invalid (fun () ->
      Topology.make ~capacities:[| 1.; 1. |]
        ~b:[| [| 0.; -2. |]; [| 1.; 0. |] |]
        ~d:square2 ());
  expect_invalid (fun () ->
      Topology.make ~names:[| "x" |] ~capacities:[| 1.; 1. |] ~b:square2 ~d:square2 ())

let test_matrices_copied () =
  let b = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let t = Topology.make ~capacities:[| 1.; 1. |] ~b ~d:b () in
  b.(0).(1) <- 99.0;
  check flt "input mutation does not leak" 1.0 (Topology.b t 0 1);
  let out = Topology.b_matrix t in
  out.(0).(1) <- 42.0;
  check flt "output mutation does not leak" 1.0 (Topology.b t 0 1)

let test_max_b () =
  let b = [| [| 0.; 3. |]; [| 2.; 0. |] |] in
  let t = Topology.make ~capacities:[| 1.; 1. |] ~b ~d:b () in
  check Alcotest.(array flt) "row maxima" [| 3.0; 2.0 |] (Topology.b_row_max t);
  check Alcotest.(array flt) "column maxima" [| 2.0; 3.0 |] (Topology.b_col_max t);
  check Alcotest.(array flt) "B transposed" [| 0.; 2.; 3.; 0. |] (Topology.bt_flat t);
  check flt "max_b" 3.0 (Topology.max_b t);
  check flt "max_d" 3.0 (Topology.max_d t);
  (* block a ranks the partitions by delay, largest first *)
  let rows = Topology.d_row_order t and cols = Topology.d_col_order t in
  check Alcotest.(array int) "by D(a, i)" [| 1; 0; 0; 1 |] rows.Topology.ids;
  check Alcotest.(array flt) "D(a, i) descending" [| 3.; 0.; 2.; 0. |] rows.Topology.delays;
  check Alcotest.(array int) "by D(i, a)" [| 1; 0; 0; 1 |] cols.Topology.ids;
  check Alcotest.(array flt) "D(i, a) descending" [| 2.; 0.; 3.; 0. |] cols.Topology.delays

let test_symmetry () =
  let sym = square2 in
  let asym = [| [| 0.; 3. |]; [| 2.; 0. |] |] in
  let t1 = Topology.make ~capacities:[| 1.; 1. |] ~b:sym ~d:asym () in
  check Alcotest.bool "b symmetric" true (Topology.b_symmetric t1);
  check Alcotest.bool "d asymmetric" false (Topology.d_symmetric t1)

let test_with_zero_b () =
  let t = Topology.make ~capacities:[| 1.; 1. |] ~b:square2 ~d:square2 () in
  let z = Topology.with_zero_b t in
  check flt "b zeroed" 0.0 (Topology.b z 0 1);
  check flt "d preserved" 1.0 (Topology.d z 0 1);
  check flt "capacity preserved" 1.0 (Topology.capacity z 0)

let test_scale_b () =
  let t = Topology.make ~capacities:[| 1.; 1. |] ~b:square2 ~d:square2 () in
  let s = Topology.scale_b t 2.5 in
  check flt "b scaled" 2.5 (Topology.b s 0 1);
  check flt "d untouched" 1.0 (Topology.d s 0 1)

(* ------------------------------------------------------------------ *)
(* Grid *)

(* The paper's Figure-1 2x2 array: B = D = Manhattan with adjacent
   partitions distance 1 apart. *)
let paper_b =
  [|
    [| 0.; 1.; 1.; 2. |];
    [| 1.; 0.; 2.; 1. |];
    [| 1.; 2.; 0.; 1. |];
    [| 2.; 1.; 1.; 0. |];
  |]

let test_grid_2x2_matches_paper () =
  let t = Grid.make ~rows:2 ~cols:2 ~capacity:10.0 () in
  check Alcotest.int "m" 4 (Topology.m t);
  for i1 = 0 to 3 do
    for i2 = 0 to 3 do
      check flt
        (Printf.sprintf "B[%d][%d]" i1 i2)
        paper_b.(i1).(i2) (Topology.b t i1 i2);
      check flt
        (Printf.sprintf "D[%d][%d]" i1 i2)
        paper_b.(i1).(i2) (Topology.d t i1 i2)
    done
  done

let test_grid_4x4 () =
  let t = Grid.make ~rows:4 ~cols:4 ~capacity:1.0 () in
  check Alcotest.int "m" 16 (Topology.m t);
  (* corner to opposite corner: distance 6 *)
  check flt "diameter" 6.0 (Topology.b t 0 15);
  check flt "adjacent" 1.0 (Topology.b t 0 1);
  check flt "row hop" 1.0 (Topology.b t 0 4)

let test_grid_metrics () =
  let sq = Grid.make ~metric:Grid.Squared ~rows:2 ~cols:2 ~capacity:1.0 () in
  check flt "squared metric" 4.0 (Topology.b sq 0 3);
  check flt "squared delay still manhattan" 2.0 (Topology.d sq 0 3);
  let cr = Grid.make ~metric:Grid.Crossings ~rows:2 ~cols:2 ~capacity:1.0 () in
  check flt "crossings far" 1.0 (Topology.b cr 0 3);
  check flt "crossings near" 1.0 (Topology.b cr 0 1);
  check flt "crossings same" 0.0 (Topology.b cr 1 1)

let test_grid_delay_scale () =
  let t = Grid.make ~delay_scale:2.5 ~rows:2 ~cols:2 ~capacity:1.0 () in
  check flt "scaled delay" 5.0 (Topology.d t 0 3);
  check flt "b unscaled" 2.0 (Topology.b t 0 3)

let test_grid_slot_index () =
  check Alcotest.(pair int int) "slot" (1, 2) (Grid.slot ~cols:4 6);
  check Alcotest.int "index" 6 (Grid.index ~cols:4 ~row:1 ~col:2)

let test_grid_capacities () =
  let t =
    Grid.make_capacities ~rows:1 ~cols:3 ~capacities:[| 1.; 2.; 3. |] ()
  in
  check flt "per-slot capacity" 2.0 (Topology.capacity t 1);
  try
    ignore (Grid.make_capacities ~rows:2 ~cols:2 ~capacities:[| 1. |] ());
    fail "bad capacities length accepted"
  with Invalid_argument _ -> ()

let test_grid_validation () =
  (try
     ignore (Grid.make ~rows:0 ~cols:2 ~capacity:1.0 ());
     fail "rows=0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Grid.make ~rows:2 ~cols:2 ~capacity:0.0 ());
    fail "capacity=0 accepted"
  with Invalid_argument _ -> ()

(* qcheck: grid distances obey the triangle inequality and symmetry *)
let prop_grid_metric =
  QCheck.Test.make ~name:"grid Manhattan metric is a metric" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 1 5))
    (fun (rows, cols) ->
      let t = Grid.make ~rows ~cols ~capacity:1.0 () in
      let m = Topology.m t in
      let ok = ref true in
      for a = 0 to m - 1 do
        for b = 0 to m - 1 do
          if Topology.b t a b <> Topology.b t b a then ok := false;
          if (a = b) <> (Topology.b t a b = 0.0) then ok := false;
          for c = 0 to m - 1 do
            if Topology.b t a c > Topology.b t a b +. Topology.b t b c +. 1e-9 then ok := false
          done
        done
      done;
      !ok)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "topology"
    [
      ( "topology",
        [
          Alcotest.test_case "accessors" `Quick test_make_accessors;
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "defensive copies" `Quick test_matrices_copied;
          Alcotest.test_case "max bounds" `Quick test_max_b;
          Alcotest.test_case "symmetry predicates" `Quick test_symmetry;
          Alcotest.test_case "with_zero_b" `Quick test_with_zero_b;
          Alcotest.test_case "scale_b" `Quick test_scale_b;
        ] );
      ( "grid",
        [
          Alcotest.test_case "2x2 matches paper figure 1" `Quick test_grid_2x2_matches_paper;
          Alcotest.test_case "4x4" `Quick test_grid_4x4;
          Alcotest.test_case "metrics" `Quick test_grid_metrics;
          Alcotest.test_case "delay scale" `Quick test_grid_delay_scale;
          Alcotest.test_case "slot/index" `Quick test_grid_slot_index;
          Alcotest.test_case "per-slot capacities" `Quick test_grid_capacities;
          Alcotest.test_case "validation" `Quick test_grid_validation;
        ] );
      ("properties", [ q prop_grid_metric ]);
    ]
