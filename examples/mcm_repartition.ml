(* MCM/TCM re-partitioning (paper section 2.2.1).

   A designer manually assigns functional blocks to the chip slots of a
   Thermal Conduction Module.  The hand assignment violates capacity
   and timing constraints; we want the *legalized* assignment that
   deviates least from the designer's intent, where the deviation of a
   moved component is its size times the Manhattan distance moved:

     p_ij = s_j * Manhattan(i, A_initial(j))

   and the objective is PP(1,0) — pure linear term, no wire cost.

   Run with:  dune exec examples/mcm_repartition.exe *)

module Rng = Qbpart_netlist.Rng
module Netlist = Qbpart_netlist.Netlist
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Check = Qbpart_timing.Check
module Assignment = Qbpart_partition.Assignment
module Evaluate = Qbpart_partition.Evaluate
module Problem = Qbpart_core.Problem
module Burkard = Qbpart_core.Burkard

let () =
  let rng = Rng.create 2024 in
  (* A 60-block design on a 3x3 TCM array. *)
  let netlist = Generator.generate rng (Generator.default_params ~n:60 ~wires:300) in
  let m = 9 in
  let capacity = Netlist.total_size netlist /. float_of_int m *. 1.2 in
  let topology = Grid.make ~rows:3 ~cols:3 ~capacity () in

  (* The designer's hand assignment: biased toward the top-left slots,
     which overloads them — a caricature of an early floorplan. *)
  let initial =
    Array.init (Netlist.n netlist) (fun _ ->
        let r = Rng.float rng 1.0 in
        if r < 0.5 then Rng.int rng 3 else Rng.int rng m)
  in
  (* Timing constraints between heavily connected blocks. *)
  let budgets = Constraints.Builder.create ~n:(Netlist.n netlist) in
  Array.iter
    (fun w ->
      if Qbpart_netlist.Wire.weight w >= 3.0 then
        Constraints.Builder.add_sym budgets (Qbpart_netlist.Wire.u w) (Qbpart_netlist.Wire.v w) 2.0)
    (Netlist.wires netlist);
  let constraints = Constraints.Builder.build budgets in

  let excess = Evaluate.capacity_excess netlist topology initial in
  Format.printf "designer's assignment: capacity excess %.1f over %d slots, %d timing violations@."
    (Array.fold_left ( +. ) 0.0 excess)
    (Array.length (Array.of_list (List.filter (fun x -> x > 0.0) (Array.to_list excess))))
    (Check.count constraints topology ~assignment:initial);

  (* PP(1,0): deviation-cost matrix from the initial assignment. *)
  let base = Problem.make ~constraints netlist topology in
  let p = Problem.deviation_p base ~initial in
  let problem = Problem.make ~alpha:1.0 ~beta:0.0 ~p ~constraints netlist topology in

  let result = Burkard.solve ~initial problem in
  match result.Burkard.best_feasible with
  | None -> Format.printf "no legal assignment found@."
  | Some (final, deviation) ->
    Format.printf "@.legalized with total deviation %.1f (size x distance)@." deviation;
    let moved =
      List.filter (fun j -> final.(j) <> initial.(j)) (List.init (Netlist.n netlist) Fun.id)
    in
    Format.printf "moved %d of %d blocks:@." (List.length moved) (Netlist.n netlist);
    List.iteri
      (fun k j ->
        if k < 12 then
          Format.printf "  %s: %s -> %s (size %.1f, distance %.0f)@."
            (Qbpart_netlist.Component.name (Netlist.component netlist j))
            (Topology.name topology initial.(j))
            (Topology.name topology final.(j))
            (Netlist.size netlist j)
            (Topology.b topology final.(j) initial.(j)))
      moved;
    if List.length moved > 12 then Format.printf "  ...@.";
    Format.printf "@.after legalization: capacity excess %.1f, %d timing violations@."
      (Array.fold_left ( +. ) 0.0 (Evaluate.capacity_excess netlist topology final))
      (Check.count constraints topology ~assignment:final);
    (* sanity: large blocks should move less than small ones on average *)
    let avg_size sel =
      let xs = List.filter sel (List.init (Netlist.n netlist) Fun.id) in
      if xs = [] then 0.0
      else
        List.fold_left (fun acc j -> acc +. Netlist.size netlist j) 0.0 xs
        /. float_of_int (List.length xs)
    in
    Format.printf "average size of moved blocks %.1f vs unmoved %.1f@."
      (avg_size (fun j -> final.(j) <> initial.(j)))
      (avg_size (fun j -> final.(j) = initial.(j)))
