(** Penalty continuation around the Burkard heuristic.

    Theorem 2 makes any penalty valid {e provided} the returned
    minimizer is timing-feasible; when a run ends with violations the
    correct reaction is to raise the penalty and continue — the
    penalty value is a solver parameter, not part of the problem.
    This wrapper runs {!Burkard.solve} in rounds, multiplying the
    penalty and warm-starting each round from the best solution of the
    previous one, until a timing-feasible solution is found (or the
    round budget is exhausted).  On problems without timing
    constraints it reduces to a single {!Burkard.solve}. *)

module Assignment := Qbpart_partition.Assignment

type round = {
  penalty : float;
  best_cost : float;     (** penalized objective of the round's best *)
  found_feasible : bool; (** whether this round produced a C1∧C2 iterate *)
}

type result = {
  best_feasible : (Assignment.t * float) option;
      (** best fully feasible solution over all rounds, with its
          equation-(1) objective *)
  rounds : round list;   (** chronological *)
  last : Burkard.result; (** the final round's full result *)
}

val solve :
  ?config:Burkard.Config.t ->
  ?initial:Assignment.t ->
  ?max_rounds:int ->
  ?factor:float ->
  ?should_stop:(unit -> bool) ->
  ?observe:(Burkard.iteration -> unit) ->
  ?gap_solver:Burkard.gap_solver ->
  ?workspace:Burkard.Workspace.t ->
  Problem.t ->
  result
(** [max_rounds] defaults to 4, [factor] (penalty multiplier between
    rounds) to 8.  The first round uses [config]'s penalty (default
    50).  Rounds stop early once a feasible solution exists and the
    latest round no longer improves it.

    [should_stop], [observe] and [gap_solver] are forwarded to every
    inner {!Burkard.solve}; an interrupted round also ends the
    continuation, so the whole solve honours one shared budget and
    returns the best feasible checkpoint found so far.  [workspace]
    (one {!Burkard.Workspace.create} per portfolio start; without it,
    one is created for this call) is likewise shared by every round,
    so the penalty ladder re-enters the hot loop without reallocating
    its buffers. *)
