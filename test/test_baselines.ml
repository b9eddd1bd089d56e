(* Tests for the GFM / GKL baselines and the shared incremental gain
   bookkeeping. *)

open Qbpart_baselines
module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Evaluate = Qbpart_partition.Evaluate
module Validate = Qbpart_partition.Validate
module Initial = Qbpart_partition.Initial

let check = Alcotest.check
let fail = Alcotest.fail
let flt = Alcotest.float 1e-6

let random_setup seed ~n ~wires ~slack =
  let rng = Rng.create seed in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires) in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity:(Netlist.total_size nl /. 4.0 *. slack) () in
  (rng, nl, topo)

let objective ?p ?alpha ?beta nl topo a = Evaluate.objective ?alpha ?beta ?p nl topo a

(* ------------------------------------------------------------------ *)
(* Gains: incremental deltas must equal full recomputation *)

let prop_move_delta_exact =
  QCheck.Test.make ~name:"move_delta == recomputed objective delta" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:12 ~wires:30 ~slack:4.0 in
      let m = Topology.m topo in
      let a = Assignment.random rng ~n:12 ~m in
      let p =
        Array.init m (fun _ -> Array.init 12 (fun _ -> Rng.float rng 3.0))
      in
      let gains = Gains.create ~p nl topo a in
      let base = objective ~p nl topo a in
      let ok = ref true in
      for j = 0 to 11 do
        for i = 0 to m - 1 do
          let a' = Assignment.copy a in
          a'.(j) <- i;
          let expected = objective ~p nl topo a' -. base in
          if Float.abs (Gains.move_delta gains ~j ~target:i -. expected) > 1e-6 then ok := false
        done
      done;
      !ok)

let prop_swap_delta_exact =
  QCheck.Test.make ~name:"swap_delta == recomputed objective delta" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:10 ~wires:25 ~slack:4.0 in
      let m = Topology.m topo in
      let a = Assignment.random rng ~n:10 ~m in
      let gains = Gains.create nl topo a in
      let base = objective nl topo a in
      let ok = ref true in
      for j1 = 0 to 9 do
        for j2 = j1 + 1 to 9 do
          let a' = Assignment.copy a in
          let t = a'.(j1) in
          a'.(j1) <- a'.(j2);
          a'.(j2) <- t;
          let expected = objective nl topo a' -. base in
          if Float.abs (Gains.swap_delta gains ~j1 ~j2 -. expected) > 1e-6 then ok := false
        done
      done;
      !ok)

let prop_gains_stay_consistent_after_moves =
  QCheck.Test.make ~name:"gains table consistent after random move sequences" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:10 ~wires:25 ~slack:4.0 in
      let m = Topology.m topo in
      let a0 = Assignment.random rng ~n:10 ~m in
      let gains = Gains.create nl topo a0 in
      for _ = 1 to 20 do
        let j = Rng.int rng 10 and i = Rng.int rng m in
        Gains.apply_move gains ~j ~target:i
      done;
      let a = Gains.assignment gains in
      let base = objective nl topo a in
      let ok = ref true in
      for j = 0 to 9 do
        for i = 0 to m - 1 do
          let a' = Assignment.copy a in
          a'.(j) <- i;
          let expected = objective nl topo a' -. base in
          if Float.abs (Gains.move_delta gains ~j ~target:i -. expected) > 1e-6 then ok := false
        done
      done;
      (* loads in sync too *)
      let loads = Assignment.loads nl ~m a in
      Array.iteri
        (fun i l -> if Float.abs (l -. (Gains.loads gains).(i)) > 1e-9 then ok := false)
        loads;
      !ok)

let test_gains_capacity_checks () =
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.add_component b ~size:3.0 () in
  let y = Netlist.Builder.add_component b ~size:1.0 () in
  Netlist.Builder.add_wire b x y ();
  let nl = Netlist.Builder.build b in
  let topo = Grid.make ~rows:1 ~cols:2 ~capacity:3.5 () in
  let gains = Gains.create nl topo [| 0; 1 |] in
  (* moving either component on top of the other exceeds 3.5, but the
     exchange fits both ways *)
  check Alcotest.bool "big move blocked" false (Gains.move_fits gains topo ~j:x ~target:1);
  check Alcotest.bool "small move blocked" false (Gains.move_fits gains topo ~j:y ~target:0);
  check Alcotest.bool "swap fits" true (Gains.swap_fits gains topo ~j1:x ~j2:y);
  let roomy = Grid.make ~rows:1 ~cols:2 ~capacity:4.5 () in
  let gains = Gains.create nl roomy [| 0; 1 |] in
  check Alcotest.bool "move fits with room" true (Gains.move_fits gains roomy ~j:y ~target:0)

(* ------------------------------------------------------------------ *)
(* GFM *)

let feasible_start rng nl topo constraints =
  match Initial.greedy_feasible ?constraints ~attempts:200 rng nl topo () with
  | Some a -> a
  | None -> fail "test setup: no feasible start"

let test_gfm_improves_and_stays_feasible () =
  let rng, nl, topo = random_setup 3 ~n:40 ~wires:160 ~slack:1.3 in
  let initial = feasible_start rng nl topo None in
  let result = Gfm.solve nl topo ~initial in
  check Alcotest.bool "no worse" true (result.Gfm.cost <= objective nl topo initial +. 1e-9);
  check Alcotest.bool "capacity feasible" true
    (Evaluate.capacity_feasible nl topo result.Gfm.assignment);
  check flt "cost reported correctly" (objective nl topo result.Gfm.assignment) result.Gfm.cost

let test_gfm_rejects_infeasible_start () =
  let _, nl, topo = random_setup 5 ~n:10 ~wires:20 ~slack:0.3 in
  try
    ignore (Gfm.solve nl topo ~initial:(Array.make 10 0));
    fail "infeasible start accepted"
  with Invalid_argument _ -> ()

let test_gfm_timing_preserved () =
  let rng, nl, topo = random_setup 7 ~n:30 ~wires:90 ~slack:1.4 in
  (* constraints planted on a greedy reference *)
  let reference = feasible_start rng nl topo None in
  let cons = Constraints.Builder.create ~n:30 in
  Array.iter
    (fun w ->
      let u = Qbpart_netlist.Wire.u w and v = Qbpart_netlist.Wire.v w in
      Constraints.Builder.add_sym cons u v (Topology.d topo reference.(u) reference.(v) +. 1.0))
    (Netlist.wires nl);
  let cons = Constraints.Builder.build cons in
  let initial = reference in
  let result = Gfm.solve ~constraints:cons nl topo ~initial in
  check Alcotest.bool "timing feasible result" true
    (Validate.is_feasible ~constraints:cons nl topo result.Gfm.assignment);
  check Alcotest.bool "no worse" true (result.Gfm.cost <= objective nl topo initial +. 1e-9)

let test_gfm_local_optimum () =
  (* after convergence, no single feasible move improves the cost *)
  let rng, nl, topo = random_setup 11 ~n:20 ~wires:60 ~slack:1.5 in
  let initial = feasible_start rng nl topo None in
  let result = Gfm.solve nl topo ~initial in
  let a = result.Gfm.assignment in
  let m = Topology.m topo in
  let loads = Assignment.loads nl ~m a in
  for j = 0 to 19 do
    for i = 0 to m - 1 do
      if i <> a.(j) && loads.(i) +. Netlist.size nl j <= Topology.capacity topo i then begin
        let a' = Assignment.copy a in
        a'.(j) <- i;
        if objective nl topo a' < result.Gfm.cost -. 1e-6 then
          fail "improving feasible move left after GFM"
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* GKL *)

let test_gkl_improves_and_stays_feasible () =
  let rng, nl, topo = random_setup 13 ~n:40 ~wires:160 ~slack:1.3 in
  let initial = feasible_start rng nl topo None in
  let result = Gkl.solve nl topo ~initial in
  check Alcotest.bool "no worse" true (result.Gkl.cost <= objective nl topo initial +. 1e-9);
  check Alcotest.int "assignment is projected" 40 (Array.length result.Gkl.assignment);
  check Alcotest.bool "capacity feasible" true
    (Evaluate.capacity_feasible nl topo result.Gkl.assignment);
  check flt "cost consistent" (objective nl topo result.Gkl.assignment) result.Gkl.cost

let test_gkl_pure_swaps_preserve_loads () =
  (* with dummies = 0, partition loads are permuted only by equal-size
     swaps; with our unequal sizes, loads can change but capacity
     feasibility must hold *)
  let rng, nl, topo = random_setup 17 ~n:30 ~wires:90 ~slack:1.4 in
  let initial = feasible_start rng nl topo None in
  let config = { Gkl.default_config with Gkl.dummies = 0 } in
  let result = Gkl.solve ~config nl topo ~initial in
  check Alcotest.bool "capacity feasible" true
    (Evaluate.capacity_feasible nl topo result.Gkl.assignment);
  check Alcotest.bool "no worse" true (result.Gkl.cost <= objective nl topo initial +. 1e-9)

let test_gkl_timing_preserved () =
  let rng, nl, topo = random_setup 19 ~n:30 ~wires:90 ~slack:1.4 in
  let reference = feasible_start rng nl topo None in
  let cons = Constraints.Builder.create ~n:30 in
  Array.iter
    (fun w ->
      let u = Qbpart_netlist.Wire.u w and v = Qbpart_netlist.Wire.v w in
      Constraints.Builder.add_sym cons u v (Topology.d topo reference.(u) reference.(v) +. 1.0))
    (Netlist.wires nl);
  let cons = Constraints.Builder.build cons in
  let result = Gkl.solve ~constraints:cons nl topo ~initial:reference in
  check Alcotest.bool "timing feasible result" true
    (Validate.is_feasible ~constraints:cons nl topo result.Gkl.assignment)

let test_gkl_outer_loop_cap () =
  let rng, nl, topo = random_setup 23 ~n:30 ~wires:120 ~slack:1.4 in
  let initial = feasible_start rng nl topo None in
  let config = { Gkl.default_config with Gkl.max_outer = 2 } in
  let result = Gkl.solve ~config nl topo ~initial in
  check Alcotest.bool "outer loops capped" true (result.Gkl.outer_loops <= 2)

let test_gkl_dummy_names_not_leaked () =
  let rng, nl, topo = random_setup 29 ~n:20 ~wires:60 ~slack:1.5 in
  let initial = feasible_start rng nl topo None in
  let result = Gkl.solve nl topo ~initial in
  Array.iteri
    (fun j i ->
      if j >= Netlist.n nl then fail "dummy leaked into result";
      if i < 0 || i >= Topology.m topo then fail "partition out of range")
    result.Gkl.assignment

let prop_baselines_feasible =
  QCheck.Test.make ~name:"GFM and GKL always return feasible results" ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:25 ~wires:75 ~slack:1.5 in
      match Initial.greedy_feasible ~attempts:50 rng nl topo () with
      | None -> true
      | Some initial ->
        let gfm = Gfm.solve nl topo ~initial in
        let gkl = Gkl.solve nl topo ~initial in
        Evaluate.capacity_feasible nl topo gfm.Gfm.assignment
        && Evaluate.capacity_feasible nl topo gkl.Gkl.assignment
        && gfm.Gfm.cost <= objective nl topo initial +. 1e-9
        && gkl.Gkl.cost <= objective nl topo initial +. 1e-9)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "baselines"
    [
      ( "gains",
        [
          q prop_move_delta_exact;
          q prop_swap_delta_exact;
          q prop_gains_stay_consistent_after_moves;
          Alcotest.test_case "capacity checks" `Quick test_gains_capacity_checks;
        ] );
      ( "gfm",
        [
          Alcotest.test_case "improves, stays feasible" `Quick
            test_gfm_improves_and_stays_feasible;
          Alcotest.test_case "rejects infeasible start" `Quick test_gfm_rejects_infeasible_start;
          Alcotest.test_case "preserves timing" `Quick test_gfm_timing_preserved;
          Alcotest.test_case "reaches local optimum" `Quick test_gfm_local_optimum;
        ] );
      ( "gkl",
        [
          Alcotest.test_case "improves, stays feasible" `Quick
            test_gkl_improves_and_stays_feasible;
          Alcotest.test_case "pure swaps" `Quick test_gkl_pure_swaps_preserve_loads;
          Alcotest.test_case "preserves timing" `Quick test_gkl_timing_preserved;
          Alcotest.test_case "outer loop cap" `Quick test_gkl_outer_loop_cap;
          Alcotest.test_case "dummies projected out" `Quick test_gkl_dummy_names_not_leaked;
        ] );
      ("properties", [ q prop_baselines_feasible ]);
    ]
