module Rng = Qbpart_netlist.Rng
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Check = Qbpart_timing.Check
module Assignment = Qbpart_partition.Assignment
module Evaluate = Qbpart_partition.Evaluate
module Validate = Qbpart_partition.Validate
module Initial = Qbpart_partition.Initial
module Problem = Qbpart_core.Problem
module Burkard = Qbpart_core.Burkard
module Gfm = Qbpart_baselines.Gfm
module Gkl = Qbpart_baselines.Gkl

type cell = { final : float; improvement_pct : float; cpu_seconds : float }
type row = { name : string; start : float; qbp : cell; gfm : cell; gkl : cell }

(* Feasibility-preserving perturbation of the reference witness: random
   single-component moves that keep C1 and C2, degrading wirelength so
   the tables have an honestly mediocre start. *)
let perturb_reference (inst : Circuits.instance) =
  let nl = inst.Circuits.netlist and topo = inst.Circuits.topology in
  let cons = inst.Circuits.constraints in
  let n = Qbpart_netlist.Netlist.n nl and m = Topology.m topo in
  let rng = Rng.create (inst.Circuits.spec.Circuits.seed + 7919) in
  let a = Assignment.copy inst.Circuits.reference in
  let loads = Assignment.loads nl ~m a in
  let moves = ref (4 * n) in
  let attempts = ref (40 * n) in
  while !moves > 0 && !attempts > 0 do
    decr attempts;
    let j = Rng.int rng n and i = Rng.int rng m in
    let s = Qbpart_netlist.Netlist.size nl j in
    if
      i <> a.(j)
      && loads.(i) +. s <= Topology.capacity topo i
      && Check.placement_ok cons topo ~assignment:a ~j ~at:i ~other:(-1)
    then begin
      loads.(a.(j)) <- loads.(a.(j)) -. s;
      loads.(i) <- loads.(i) +. s;
      a.(j) <- i;
      decr moves
    end
  done;
  a

let initial_solution (inst : Circuits.instance) =
  let nl = inst.Circuits.netlist and topo = inst.Circuits.topology in
  let cons = inst.Circuits.constraints in
  let problem = Problem.make ~constraints:cons nl topo in
  let config = { Burkard.Config.default with iterations = 30 } in
  let candidate =
    match Burkard.initial_feasible ~config problem with
    | Some a -> Some a
    | None ->
      Initial.greedy_feasible ~constraints:cons ~attempts:50
        (Rng.create (inst.Circuits.spec.Circuits.seed + 13))
        nl topo ()
  in
  let a = match candidate with Some a -> a | None -> perturb_reference inst in
  Validate.assert_feasible ~constraints:cons nl topo a;
  a

let timed f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let cell ~start ~final ~cpu_seconds =
  { final; improvement_pct = 100.0 *. (start -. final) /. start; cpu_seconds }

let run ?(with_timing = true) ?stage_deadline ?qbp_config ?gfm_config ?gkl_config ?initial
    inst =
  let nl = inst.Circuits.netlist and topo = inst.Circuits.topology in
  let constraints = if with_timing then Some inst.Circuits.constraints else None in
  let initial = match initial with Some a -> a | None -> initial_solution inst in
  let start = Evaluate.wirelength nl topo initial in
  (* Each solver gets its own budget so a slow QBP cannot starve the
     baselines of their table cells. *)
  let fresh_stop () =
    match stage_deadline with
    | None -> fun () -> false
    | Some secs -> Qbpart_engine.Deadline.should_stop (Qbpart_engine.Deadline.of_seconds secs)
  in
  let verify what a =
    match Validate.check ?constraints nl topo a with
    | [] -> ()
    | issue :: _ ->
      failwith
        (Format.asprintf "%s produced an infeasible result on %s: %a" what
           inst.Circuits.spec.Circuits.name Validate.pp_issue issue)
  in
  let problem = Circuits.problem ~with_timing inst in
  let qbp =
    let should_stop = fresh_stop () in
    let result, cpu =
      timed (fun () -> Burkard.solve ?config:qbp_config ~initial ~should_stop problem)
    in
    match result.Burkard.best_feasible with
    | Some (a, final) ->
      verify "QBP" a;
      cell ~start ~final ~cpu_seconds:cpu
    | None ->
      (* cannot happen: the initial solution itself is feasible and is
         considered by the solver *)
      failwith "QBP lost its feasible start"
  in
  let gfm =
    let should_stop = fresh_stop () in
    let result, cpu =
      timed (fun () -> Gfm.solve ?config:gfm_config ?constraints ~should_stop nl topo ~initial)
    in
    verify "GFM" result.Gfm.assignment;
    cell ~start ~final:result.Gfm.cost ~cpu_seconds:cpu
  in
  let gkl =
    let should_stop = fresh_stop () in
    let result, cpu =
      timed (fun () -> Gkl.solve ?config:gkl_config ?constraints ~should_stop nl topo ~initial)
    in
    verify "GKL" result.Gkl.assignment;
    cell ~start ~final:result.Gkl.cost ~cpu_seconds:cpu
  in
  { name = inst.Circuits.spec.Circuits.name; start; qbp; gfm; gkl }

let run_suite ?with_timing ?stage_deadline ?qbp_config instances =
  List.map (fun inst -> run ?with_timing ?stage_deadline ?qbp_config inst) instances

type robustness = {
  name : string;
  starts : int;
  from_initial : float;
  from_random : float list;
  feasible_runs : int;
}

let random_start_robustness ?(starts = 3) ?(with_timing = true) inst =
  let problem = Circuits.problem ~with_timing inst in
  let initial = initial_solution inst in
  let solve_from init =
    let r = Burkard.solve ~initial:init problem in
    Option.map snd r.Burkard.best_feasible
  in
  let from_initial =
    match solve_from initial with
    | Some c -> c
    | None -> failwith "robustness: QBP lost its feasible start"
  in
  let n = Qbpart_netlist.Netlist.n inst.Circuits.netlist in
  let m = Topology.m inst.Circuits.topology in
  let outcomes =
    List.init starts (fun k ->
        let rng = Rng.create ((inst.Circuits.spec.Circuits.seed * 31) + k) in
        solve_from (Assignment.random rng ~n ~m))
  in
  let from_random = List.filter_map Fun.id outcomes in
  {
    name = inst.Circuits.spec.Circuits.name;
    starts;
    from_initial;
    from_random;
    feasible_runs = List.length from_random;
  }
