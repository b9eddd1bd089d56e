module Rng = Qbpart_netlist.Rng
module Netlist = Qbpart_netlist.Netlist
module Wire = Qbpart_netlist.Wire
module Generator = Qbpart_netlist.Generator
module Stats = Qbpart_netlist.Stats
module Topology = Qbpart_topology.Topology
module Grid = Qbpart_topology.Grid
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Initial = Qbpart_partition.Initial
module Problem = Qbpart_core.Problem
module Burkard = Qbpart_core.Burkard

type spec = { name : string; n : int; wires : int; timing_constraints : int; seed : int }

let table1 =
  [
    { name = "ckta"; n = 339; wires = 8200; timing_constraints = 3464; seed = 101 };
    { name = "cktb"; n = 357; wires = 3017; timing_constraints = 1325; seed = 102 };
    { name = "cktc"; n = 545; wires = 12141; timing_constraints = 11545; seed = 103 };
    { name = "cktd"; n = 521; wires = 6309; timing_constraints = 6009; seed = 104 };
    { name = "ckte"; n = 380; wires = 3831; timing_constraints = 3760; seed = 105 };
    { name = "cktf"; n = 607; wires = 4809; timing_constraints = 4683; seed = 106 };
    { name = "cktg"; n = 472; wires = 3376; timing_constraints = 3376; seed = 107 };
  ]

type instance = {
  spec : spec;
  netlist : Netlist.t;
  topology : Topology.t;
  constraints : Constraints.t;
  reference : Assignment.t;
}

(* The planting reference: a quick no-timing QBP run from a random
   start, which is both capacity-feasible and wirelength-good, so the
   budgets derived from it bind near the optimum.  Falls back to plain
   first-fit-decreasing if the solver returns nothing feasible within
   its budget (which cannot happen for sane capacity slack, but the
   fallback keeps the generator total). *)
let make_reference ~iterations nl topo =
  let problem = Problem.make nl topo in
  let config = { Burkard.Config.default with iterations } in
  match (Burkard.solve ~config problem).Burkard.best_feasible with
  | Some (a, _) -> a
  | None -> (
    match Initial.first_fit_decreasing nl topo with
    | Some a -> a
    | None -> failwith "Circuits.build: capacity slack too tight for first-fit")

let plant_constraints ?(slack = (1.0, 2.0)) rng ~target nl topo reference =
  let n = Netlist.n nl in
  (* only n(n-1) distinct directed pairs exist; an over-ambitious
     target would spin the random-pair fallback below forever *)
  let target = min target (n * (n - 1)) in
  let cons = Constraints.Builder.create ~n in
  let seen = Hashtbl.create 1024 in
  let slack_lo, slack_hi = slack in
  let budget j1 j2 =
    let slack = if Rng.float rng 1.0 < 0.6 then slack_lo else slack_hi in
    Topology.d topo reference.(j1) reference.(j2) +. slack
  in
  let wires = Netlist.wires nl in
  let order = Array.init (Array.length wires) Fun.id in
  Rng.shuffle rng order;
  let added = ref 0 in
  let add_pair j1 j2 =
    if !added < target && not (Hashtbl.mem seen ((j1 * n) + j2)) then begin
      Hashtbl.replace seen ((j1 * n) + j2) ();
      Constraints.Builder.add cons j1 j2 (budget j1 j2);
      incr added
    end
  in
  Array.iter
    (fun k ->
      let w = wires.(k) in
      add_pair (Wire.u w) (Wire.v w);
      add_pair (Wire.v w) (Wire.u w))
    order;
  (* If the wire pairs alone cannot supply [target] directed budgets,
     extend to two-hop neighbourhoods (signals crossing one component),
     then to random pairs as a last resort. *)
  if !added < target then begin
    let xadj = Netlist.adj_offsets nl in
    let anbr = Netlist.adj_targets nl in
    let j = ref 0 in
    while !added < target && !j < n do
      for ka = xadj.(!j) to xadj.(!j + 1) - 1 do
        let a = anbr.(ka) in
        for kb = xadj.(!j) to xadj.(!j + 1) - 1 do
          let b = anbr.(kb) in
          if a < b then begin
            add_pair a b;
            add_pair b a
          end
        done
      done;
      incr j
    done
  end;
  while !added < target do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then add_pair j1 j2
  done;
  Constraints.Builder.build cons

let build ?(rows = 4) ?(cols = 4) ?(capacity_slack = 1.08) ?(reference_iterations = 30) spec =
  let rng = Rng.create spec.seed in
  let params =
    {
      (Generator.default_params ~n:spec.n ~wires:spec.wires) with
      Generator.max_multiplicity = 1;
    }
  in
  let netlist = Generator.generate ~name_prefix:(spec.name ^ "_c") rng params in
  let m = rows * cols in
  (* The even-split capacity can fall below the largest component on
     small instances; no assignment would be feasible, so floor it. *)
  let max_size =
    Array.fold_left
      (fun acc c -> Float.max acc (Qbpart_netlist.Component.size c))
      0.0 (Netlist.components netlist)
  in
  let capacity =
    Float.max
      (Netlist.total_size netlist /. float_of_int m *. capacity_slack)
      (max_size *. 1.05)
  in
  let topology = Grid.make ~rows ~cols ~capacity () in
  let reference = make_reference ~iterations:reference_iterations netlist topology in
  let constraints =
    plant_constraints rng ~target:spec.timing_constraints netlist topology reference
  in
  { spec; netlist; topology; constraints; reference }

let build_all ?capacity_slack () =
  List.map (fun spec -> build ?capacity_slack spec) table1

let scaled ~name ~n ~seed =
  build { name; n; wires = 12 * n; timing_constraints = 6 * n; seed }

let stats t = Stats.of_netlist ~name:t.spec.name t.netlist

let problem ?(with_timing = true) t =
  if with_timing then Problem.make ~constraints:t.constraints t.netlist t.topology
  else Problem.make t.netlist t.topology
