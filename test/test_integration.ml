(* End-to-end integration: generate -> serialize -> reparse -> derive
   budgets -> solve with all three methods -> evaluate -> cross-check
   every consistency relation the pipeline promises. *)

module Rng = Qbpart_netlist.Rng
module Netlist = Qbpart_netlist.Netlist
module Generator = Qbpart_netlist.Generator
module Parser = Qbpart_netlist.Parser
module Printer = Qbpart_netlist.Printer
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Constraints_io = Qbpart_timing.Constraints_io
module Sta = Qbpart_timing.Sta
module Evaluate = Qbpart_partition.Evaluate
module Validate = Qbpart_partition.Validate
module Metrics = Qbpart_partition.Metrics
module Initial = Qbpart_partition.Initial
module Problem = Qbpart_core.Problem
module Burkard = Qbpart_core.Burkard
module Adaptive = Qbpart_core.Adaptive
module Gfm = Qbpart_baselines.Gfm
module Gkl = Qbpart_baselines.Gkl

let check = Alcotest.check
let fail = Alcotest.fail

let test_full_pipeline () =
  let rng = Rng.create 424242 in
  (* 1. generate and round-trip the netlist through its file format *)
  let nl0 = Generator.generate rng (Generator.default_params ~n:90 ~wires:450) in
  let nl =
    match Parser.parse_string (Printer.to_string nl0) with
    | Ok nl -> nl
    | Error e -> fail (Parser.error_to_string e)
  in
  check Alcotest.bool "netlist round-trip" true (Netlist.equal nl0 nl);
  (* 2. derive timing budgets by STA and round-trip them too *)
  let n = Netlist.n nl in
  let intrinsic = Array.init n (fun _ -> 1.0 +. Rng.float rng 2.0) in
  let sta = Sta.of_netlist nl ~intrinsic ~order:(Rng.permutation rng n) in
  let constraints =
    match Sta.budgets sta ~cycle_time:(Sta.critical_path sta *. 2.0) with
    | Ok c -> c
    | Error e -> fail e
  in
  let constraints =
    match Constraints_io.parse_string nl (Constraints_io.to_string nl constraints) with
    | Ok c -> c
    | Error e -> fail (Constraints_io.error_to_string e)
  in
  check Alcotest.int "budgets round-trip" (Sta.edge_count sta) (Constraints.count constraints);
  (* 3. topology and shared feasible start *)
  let topo =
    Grid.make ~rows:3 ~cols:3 ~capacity:(Netlist.total_size nl /. 9.0 *. 1.25) ()
  in
  let initial =
    match Initial.greedy_feasible ~constraints ~attempts:300 rng nl topo () with
    | Some a -> a
    | None -> fail "no feasible start"
  in
  let start = Evaluate.wirelength nl topo initial in
  (* 4. all three methods must return feasible, no-worse solutions *)
  let problem = Problem.make ~constraints nl topo in
  let qbp =
    match (Burkard.solve ~initial problem).Burkard.best_feasible with
    | Some (a, _) -> a
    | None -> fail "qbp lost feasibility"
  in
  let gfm = (Gfm.solve ~constraints nl topo ~initial).Gfm.assignment in
  let gkl = (Gkl.solve ~constraints nl topo ~initial).Gkl.assignment in
  List.iter
    (fun (name, a) ->
      Validate.assert_feasible ~constraints nl topo a;
      let cost = Evaluate.wirelength nl topo a in
      if cost > start +. 1e-9 then fail (name ^ " made the start worse");
      (* 5. metrics agree with the evaluators *)
      let m = Metrics.compute ~constraints nl topo a in
      check (Alcotest.float 1e-6) (name ^ " metrics wirelength") cost m.Metrics.wirelength;
      check Alcotest.bool (name ^ " metrics feasible") true m.Metrics.feasible;
      (* cut matrix total = 2 * external weight (symmetric storage) *)
      let cm = Metrics.cut_matrix nl ~m:(Topology.m topo) a in
      let total = Array.fold_left (fun acc row -> Array.fold_left ( +. ) acc row) 0.0 cm in
      check (Alcotest.float 1e-6) (name ^ " cut matrix total")
        (2.0 *. Evaluate.external_weight nl a)
        total)
    [ ("qbp", qbp); ("gfm", gfm); ("gkl", gkl) ]

let test_adaptive_on_generated () =
  let rng = Rng.create 5150 in
  let nl = Generator.generate rng (Generator.default_params ~n:50 ~wires:250) in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity:(Netlist.total_size nl /. 4.0 *. 1.3) () in
  let reference = Option.get (Initial.first_fit_decreasing nl topo) in
  let budgets = Constraints.Builder.create ~n:50 in
  Array.iter
    (fun w ->
      let u = Qbpart_netlist.Wire.u w and v = Qbpart_netlist.Wire.v w in
      Constraints.Builder.add_sym budgets u v
        (Topology.d topo reference.(u) reference.(v) +. 1.0))
    (Netlist.wires nl);
  let constraints = Constraints.Builder.build budgets in
  let problem = Problem.make ~constraints nl topo in
  let config = { Burkard.Config.default with Burkard.Config.iterations = 25 } in
  let r = Adaptive.solve ~config problem in
  match r.Adaptive.best_feasible with
  | Some (a, _) -> Validate.assert_feasible ~constraints nl topo a
  | None -> fail "adaptive found nothing feasible on a witnessed instance"

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "generate/serialize/solve/evaluate" `Quick test_full_pipeline;
          Alcotest.test_case "adaptive on generated instance" `Quick test_adaptive_on_generated;
        ] );
    ]
