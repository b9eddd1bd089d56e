(* Quickstart: partition a 12-component system onto a 2x2 module array
   under capacity and timing constraints.

   Run with:  dune exec examples/quickstart.exe *)

module Netlist = Qbpart_netlist.Netlist
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Evaluate = Qbpart_partition.Evaluate
module Validate = Qbpart_partition.Validate
module Problem = Qbpart_core.Problem
module Burkard = Qbpart_core.Burkard

let () =
  (* 1. Describe the circuit: components with silicon-area sizes, and
     weighted interconnections between them. *)
  let b = Netlist.Builder.create () in
  let add name size = Netlist.Builder.add_component b ~name ~size () in
  let cpu = add "cpu" 8.0 in
  let fpu = add "fpu" 6.0 in
  let l1 = add "l1" 4.0 in
  let l2 = add "l2" 7.0 in
  let dram = add "dram_ctl" 5.0 in
  let dma = add "dma" 3.0 in
  let nic = add "nic" 4.0 in
  let usb = add "usb" 2.0 in
  let gpio = add "gpio" 1.0 in
  let rom = add "rom" 2.0 in
  let pll = add "pll" 1.0 in
  let uart = add "uart" 1.0 in
  let wire a bb w = Netlist.Builder.add_wire b a bb ~weight:w () in
  wire cpu l1 12.0;
  wire cpu fpu 8.0;
  wire l1 l2 10.0;
  wire l2 dram 9.0;
  wire dram dma 4.0;
  wire dma nic 3.0;
  wire cpu rom 2.0;
  wire cpu pll 1.0;
  wire nic usb 2.0;
  wire usb gpio 1.0;
  wire uart gpio 1.0;
  wire cpu uart 1.0;
  wire fpu l1 5.0;
  let netlist = Netlist.Builder.build b in
  Format.printf "circuit: %a@." Netlist.pp netlist;

  (* 2. Describe the partitions: a 2x2 module array, Manhattan wiring
     cost and routing delay, 15 area units per module. *)
  let topology = Grid.make ~rows:2 ~cols:2 ~capacity:15.0 () in
  Format.printf "topology: %a@." Topology.pp topology;

  (* 3. Timing constraints: maximum routing delay between pairs on the
     critical paths (D_C entries; everything else is unconstrained). *)
  let budgets = Constraints.Builder.create ~n:(Netlist.n netlist) in
  Constraints.Builder.add_sym budgets cpu l1 1.0;  (* must be adjacent or together *)
  Constraints.Builder.add_sym budgets l1 l2 1.0;
  Constraints.Builder.add_sym budgets l2 dram 1.0;
  Constraints.Builder.add_sym budgets cpu fpu 1.0;
  Constraints.Builder.add_sym budgets cpu pll 2.0;
  let constraints = Constraints.Builder.build budgets in

  (* 4. Solve the quadratic boolean program. *)
  let problem = Problem.make ~constraints netlist topology in
  let result = Burkard.solve problem in
  match result.Burkard.best_feasible with
  | None -> Format.printf "no feasible assignment found@."
  | Some (assignment, cost) ->
    Format.printf "@.total Manhattan wire length: %g@." cost;
    Format.printf "timing-feasible: %b, capacity-feasible: %b@."
      (Problem.timing_feasible problem assignment)
      (Problem.capacity_feasible problem assignment);
    Validate.assert_feasible ~constraints netlist topology assignment;
    Format.printf "@.placement:@.";
    for i = 0 to Topology.m topology - 1 do
      let members =
        List.filteri (fun j _ -> assignment.(j) = i) (List.init (Netlist.n netlist) Fun.id)
        |> List.map (fun j -> Qbpart_netlist.Component.name (Netlist.component netlist j))
      in
      Format.printf "  %s (load %.1f / %.1f): %s@." (Topology.name topology i)
        (Evaluate.loads netlist topology assignment).(i)
        (Topology.capacity topology i)
        (String.concat ", " members)
    done;
    Format.printf "@.cut statistics: %d of %d wire pairs cross modules (weight %.1f)@."
      (Evaluate.cut_wires netlist assignment)
      (Netlist.wire_count netlist)
      (Evaluate.external_weight netlist assignment)
