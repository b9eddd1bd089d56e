module Assignment = Qbpart_partition.Assignment
module Constraints = Qbpart_timing.Constraints

type round = { penalty : float; best_cost : float; found_feasible : bool }

type result = {
  best_feasible : (Assignment.t * float) option;
  rounds : round list;
  last : Burkard.result;
}

let solve ?(config = Burkard.Config.default) ?initial ?(max_rounds = 4) ?(factor = 8.0)
    ?(should_stop = fun () -> false) ?observe ?gap_solver ?workspace problem =
  if max_rounds < 1 then invalid_arg "Adaptive.solve: max_rounds must be >= 1";
  if factor <= 1.0 then invalid_arg "Adaptive.solve: factor must be > 1";
  let problem = Problem.normalize problem in
  let no_timing = Constraints.empty problem.Problem.constraints in
  (* one workspace for every round: its buffers, and the row caches
     the rounds re-bind to their own penalty surfaces *)
  let workspace =
    match workspace with Some w -> w | None -> Burkard.Workspace.create problem
  in
  let best_feasible = ref None in
  let keep_feasible candidate =
    match (candidate, !best_feasible) with
    | None, _ -> false
    | Some (_, c), Some (_, c') when c' <= c -> false
    | Some (a, c), _ ->
      best_feasible := Some (Assignment.copy a, c);
      true
  in
  let rounds = ref [] in
  let rec go round_idx penalty initial =
    let config = { config with Burkard.Config.penalty } in
    let result =
      Burkard.solve ~config ?initial ~should_stop ?observe ?gap_solver ~workspace problem
    in
    let improved = keep_feasible result.Burkard.best_feasible in
    rounds :=
      {
        penalty;
        best_cost = result.Burkard.best_cost;
        found_feasible = Option.is_some result.Burkard.best_feasible;
      }
      :: !rounds;
    let stop =
      no_timing
      || round_idx >= max_rounds
      || (Option.is_some !best_feasible && not improved)
      || result.Burkard.interrupted
      || should_stop ()
    in
    if stop then result
    else go (round_idx + 1) (penalty *. factor) (Some result.Burkard.best)
  in
  let last = go 1 config.Burkard.Config.penalty initial in
  { best_feasible = !best_feasible; rounds = List.rev !rounds; last }
