module Rng = Qbpart_netlist.Rng
module Netlist = Qbpart_netlist.Netlist
module Generator = Qbpart_netlist.Generator
module Topology = Qbpart_topology.Topology
module Grid = Qbpart_topology.Grid
module Constraints = Qbpart_timing.Constraints
module Initial = Qbpart_partition.Initial
module Dompool = Qbpart_pool.Dompool

type params = {
  name : string;
  n : int;
  avg_degree : float;
  timing_density : float;
  locality : float;
  clusters : int;
  timing_slack : float * float;
  seed : int;
  rows : int;
  cols : int;
  capacity_slack : float;
}

let default ~name ~n ~seed =
  {
    name;
    n;
    avg_degree = 12.0;
    timing_density = 2.0;
    locality = 0.8;
    clusters = 0;
    timing_slack = (1.0, 2.0);
    seed;
    rows = 4;
    cols = 4;
    capacity_slack = 1.08;
  }

(* Degrees follow the paper's sparsity model: Table I interconnection
   counts per component sit between ~8 and ~24, thinning as circuits
   grow, and timing constraints cover a few budgets per component. *)
let frontier =
  [
    { (default ~name:"synth10k" ~n:10_000 ~seed:210) with avg_degree = 16.0; timing_density = 3.0 };
    { (default ~name:"synth30k" ~n:30_000 ~seed:230) with avg_degree = 12.0; timing_density = 2.0 };
    {
      (default ~name:"synth100k" ~n:100_000 ~seed:2100) with
      avg_degree = 10.0;
      timing_density = 1.5;
    };
  ]

let find name = List.find_opt (fun p -> p.name = name) frontier
let names = List.map (fun p -> p.name) frontier

let validate p =
  if p.n < 2 then invalid_arg "Synth: need at least 2 components";
  if p.avg_degree <= 0.0 || Float.is_nan p.avg_degree then
    invalid_arg "Synth: avg_degree must be positive";
  if p.timing_density < 0.0 || Float.is_nan p.timing_density then
    invalid_arg "Synth: timing_density must be >= 0";
  if p.locality < 0.0 || p.locality > 1.0 then invalid_arg "Synth: locality not in [0,1]";
  if p.clusters < 0 then invalid_arg "Synth: negative cluster count";
  if p.rows < 1 || p.cols < 1 then invalid_arg "Synth: need a non-empty grid";
  if p.capacity_slack < 1.0 then invalid_arg "Synth: capacity_slack must be >= 1";
  let lo, hi = p.timing_slack in
  if lo <= 0.0 || hi < lo then invalid_arg "Synth: timing_slack must satisfy 0 < lo <= hi"

(* Auto cluster count: one hidden cluster per ~500 components keeps
   cluster populations (and thus intra-cluster wiring structure)
   constant as n grows, instead of diluting 20 clusters over 100k
   components. *)
let clusters_of p = if p.clusters > 0 then p.clusters else max 20 (p.n / 500)
let wires_of p = int_of_float (float_of_int p.n *. p.avg_degree /. 2.0)
let timing_of p = int_of_float (float_of_int p.n *. p.timing_density)

let generator_params p =
  {
    (Generator.default_params ~n:p.n ~wires:(wires_of p)) with
    Generator.clusters = clusters_of p;
    locality = p.locality;
    max_multiplicity = 1;
  }

let spec p =
  { Circuits.name = p.name; n = p.n; wires = wires_of p; timing_constraints = timing_of p;
    seed = p.seed }

(* The planting reference at frontier scale: the Table-I path runs a
   30-iteration no-timing QBP solve, which is exactly the cold-start
   cost this workload exists to measure.  Instead, partition the
   hidden clusters round-robin over the grid — wires are mostly
   intra-cluster, so the reference is wirelength-good — and spill to
   the emptiest slot with room when a partition fills up, which keeps
   it C1-feasible.  O(n·m), so building synth100k takes seconds. *)
let reference_of_labels nl topo labels =
  let m = Topology.m topo in
  let n = Netlist.n nl in
  let free = Array.init m (Topology.capacity topo) in
  let a = Array.make n (-1) in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < n do
    let s = Netlist.size nl !j in
    let target = labels.(!j) mod m in
    if free.(target) >= s then begin
      a.(!j) <- target;
      free.(target) <- free.(target) -. s
    end
    else begin
      let best = ref (-1) in
      for i = 0 to m - 1 do
        if free.(i) >= s && (!best = -1 || free.(i) > free.(!best)) then best := i
      done;
      if !best = -1 then ok := false
      else begin
        a.(!j) <- !best;
        free.(!best) <- free.(!best) -. s
      end
    end;
    incr j
  done;
  if !ok then Some a else None

let build ?pool p =
  validate p;
  let gp = generator_params p in
  (* [hidden_clusters] consumes the same leading stream [generate]
     does, so a fresh rng on the same seed reproduces the labels the
     generator plants. *)
  let labels = Generator.hidden_clusters (Rng.create p.seed) gp in
  let rng = Rng.create p.seed in
  let netlist = Generator.generate ~name_prefix:(p.name ^ "_c") ?pool rng gp in
  let m = p.rows * p.cols in
  let max_size =
    Array.fold_left
      (fun acc c -> Float.max acc (Qbpart_netlist.Component.size c))
      0.0 (Netlist.components netlist)
  in
  let capacity =
    Float.max
      (Netlist.total_size netlist /. float_of_int m *. p.capacity_slack)
      (max_size *. 1.05)
  in
  let topology = Grid.make ~rows:p.rows ~cols:p.cols ~capacity () in
  let reference =
    match reference_of_labels netlist topology labels with
    | Some a -> a
    | None -> (
      match Initial.first_fit_decreasing netlist topology with
      | Some a -> a
      | None -> failwith "Synth.build: capacity slack too tight for first-fit")
  in
  let constraints =
    Circuits.plant_constraints ~slack:p.timing_slack rng ~target:(timing_of p) netlist
      topology reference
  in
  { Circuits.spec = spec p; netlist; topology; constraints; reference }
