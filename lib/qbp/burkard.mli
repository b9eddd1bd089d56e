(** The generalized Burkard heuristic (paper section 4.2–4.3).

    Burkard's linearization heuristic for Quadratic Boolean Programs,
    generalized from permutation solution spaces to the
    capacity-constrained space {m S} = \{assignments satisfying C1 and
    C3\}: the two inner minimizations (STEP 4 and STEP 6) become
    Generalized Assignment Problems, solved with the Martello–Toth
    heuristic, and the linearization vector {m η} is computed sparsely
    from the adjacency structure — {m Q̂} is never materialized, and
    because the current iterate is binary, the inner products reduce
    to additions (section 4.3).

    One iteration:
    + STEP 3  compute {m η^{(k)}} and {m ξ^{(k)} = Σ ω_r u_r}
    + STEP 4  {m z = min_{u∈S} Σ η_r u_r} (a GAP)
    + STEP 5  {m h ← h + η / max(1, |z − ξ|)}
    + STEP 6  {m u^{(k+1)} = argmin_{u∈S} Σ h_r u_r} (a GAP)
    + STEP 7  keep the best {m uᵀQ̂u} seen so far.

    "The overall heuristic is similar to a line search procedure and
    the user can have precise control over the total runtime" — the
    iteration count is the budget knob (the paper uses 100). *)

module Assignment := Qbpart_partition.Assignment
module Mthg := Qbpart_gap.Mthg

module Config : sig
  type t = {
    iterations : int;       (** STEP 8 budget; paper: 100 *)
    penalty : float;        (** embedding penalty; paper: 50 *)
    rule : Qmatrix.rule;    (** η convention (DESIGN.md D1) *)
    gap_criteria : Mthg.criterion list; (** MTHG desirability criteria *)
    gap_improve : Mthg.improver;        (** MTHG post-pass *)
    polish_passes : int;
        (** Gauss–Seidel coordinate-descent passes on the penalized
            objective applied to each STEP-6 iterate (our enhancement,
            DESIGN.md D5; 0 disables) *)
    final_polish : int;
        (** maximum polish passes applied to the best solutions after
            the iteration budget is exhausted; the feasible best is
            polished under an effectively infinite penalty so
            feasibility is never traded away *)
    repair_every : int;
        (** every k-th iteration, strict-polish a {e copy} of the
            iterate under an effectively infinite penalty and evaluate
            it as a candidate — a feasibility probe that pulls
            solutions into the timing-feasible set without disturbing
            the Burkard trajectory (our enhancement, DESIGN.md D6;
            0 disables) *)
    seed : int;             (** randomness for the default initial solution *)
  }

  val default : t
  (** 100 iterations, penalty 50, [Solver] rule, criteria
      [[Cost; Weight]], [`Shift] improvement, 1 polish pass per
      iteration, 50 final passes, repair probe every 2 iterations,
      seed 1. *)

  val paper : t
  (** Literal paper variant: [Paper] η rule, no polish; otherwise as
      {!default}. *)
end

type iteration = {
  k : int;             (** 1-based iteration number *)
  z : float;           (** STEP 4 linearized minimum *)
  penalized : float;   (** {m uᵀQ̂u}-equivalent cost of the new iterate *)
  objective : float;   (** equation-(1) objective of the new iterate *)
  feasible : bool;     (** C1 ∧ C2 of the new iterate *)
}

type result = {
  best : Assignment.t;  (** lowest penalized objective encountered *)
  best_cost : float;    (** its penalized objective *)
  best_feasible : (Assignment.t * float) option;
      (** lowest equation-(1) objective among fully feasible iterates *)
  history : iteration list; (** chronological *)
  interrupted : bool;   (** [should_stop] fired before the budget ran out *)
}

type gap_step = Step4 | Step6
(** Which inner minimization a {!gap_solver} call serves: STEP 4
    (linearization minimum {m z}) or STEP 6 (next iterate from the
    accumulated direction {m h}). *)

type gap_solver =
  step:gap_step ->
  k:int ->
  default:(Qbpart_gap.Gap.t -> int array) ->
  Qbpart_gap.Gap.t ->
  int array
(** Pluggable inner GAP solver.  [default] is the configured
    Martello–Toth relaxed solve for this run; a custom solver may
    delegate to it, wrap it, or replace it (alternative GAP backends,
    fault injection).  [k] is the 1-based Burkard iteration.  Like the
    default relaxed MTHG, the returned assignment may violate
    capacity; the outer loop never trusts it blindly.

    The hook is called for every STEP-4 and STEP-6 solve, two per
    iteration, whatever the loop reuses.  At STEP 4, [default] may
    return a reused answer: when it is given this solve's STEP-4
    instance and the iterate equals the one of the last STEP-4 call
    that reached it, the instance is the same, and [default] returns
    a copy of that call's answer without solving (DESIGN.md D24).  The
    copy is owned by the workspace, like MTHG's pooled result, and
    valid until the next call. *)

(** Per-start scratch pool.  Holds every buffer the hot loop touches —
    the round's candidate-row cache, which is the [Solver]-rule η, and
    the accumulated direction {m h} (both aliased directly as the flat
    item-major STEP-4/6 GAP cost matrices), the GAP instance borrowed
    over them with the iteration-invariant uniform weights and
    capacities, the pooled MTHG workspace and the iterate itself — so
    that a caller running many solves on one problem shape (the adaptive
    penalty ladder, a portfolio start) allocates them exactly once and
    the steady-state inner loop allocates nothing per element: what an
    iteration still allocates is a few small blocks per call plus the
    feasibility probe's copy of the iterate and its repair's pair list
    ([test_alloc.ml] pins the kernels, DESIGN.md D14).

    It also carries what an iteration can reuse from the previous ones
    (DESIGN.md D16, D17): two {!Repair.cache}s of candidate rows, one
    for the round's penalty surface (STEP 3's η, the per-iteration
    polish and the final polish) and one for the strict surface (the
    feasibility probe, the strict polish and the repair of the tail).
    Each solve re-binds them to its own surfaces on first use, so a
    reused workspace never reads a row of another penalty; within a
    round STEP 3 and every pass recompute only the rows of components
    whose neighbours moved.  STEP 3's {m ξ} reads its {m ω} entries
    from a {!Qmatrix.omega_memo}, which computes each entry the first
    time it is read and forgets them all when the next solve binds it
    to its own matrix (DESIGN.md D23).  The GAP instance is borrowed
    once, when the workspace is created; every solve derives its
    STEP-4 and STEP-6 instances from it ([Gap.with_cost]), so the MTHG
    workspace's memo of the cost-independent constructions ([Weight])
    serves every call of every round.

    Within one solve, whose penalty surface is fixed, a step whose
    input repeats reuses its previous output (DESIGN.md D24): STEP 4
    when the iterate repeats (inside [default], see {!gap_solver}),
    the polish when STEP 6 returns the previous answer (the polished
    iterate and its cost and violations are restored), and the
    feasibility probe when it would start where the previous one did
    (skipped: its candidate has been considered).  The workspace holds
    these keys and answers, [n] ints each; a solve trusts only what it
    wrote itself.  None of it changes a result. *)
module Workspace : sig
  type t

  val create : ?pool:Qbpart_pool.Dompool.t -> Problem.t -> t
  (** Buffers sized for (and weights/capacities taken from) this
      problem.  A workspace must only be reused across solves of the
      {e same} problem (any penalty): shapes are checked, contents are
      trusted.  Create it on the domain that will solve with it: it
      borrows the GAP buffers there ([Gap.borrow]), and a solve from
      another domain raises [Invalid_argument].  [?pool] (default
      sequential) runs the MTHG criterion legs of STEPs 4 and 6 side
      by side ({!Qbpart_gap.Mthg.solve}'s [?pool]) and fans STEP 3's
      η row refresh across worker domains when many rows are invalid;
      results are bit-identical for every pool size, so it trades only
      wall-clock, never determinism. *)
end

val solve :
  ?config:Config.t ->
  ?initial:Assignment.t ->
  ?should_stop:(unit -> bool) ->
  ?observe:(iteration -> unit) ->
  ?gap_solver:gap_solver ->
  ?workspace:Workspace.t ->
  Problem.t ->
  result
(** Run the heuristic.  Without [initial], starts from a uniformly
    random assignment — the paper notes "QBP can start from any random
    solution".  The problem is normalized internally.

    [should_stop] makes the solve cooperative: it is polled at the top
    of every iteration {e and} immediately after the STEP-6 GAP (so a
    deadline can fire mid-step), plus once before the final polish.
    When it returns true the solver abandons the in-flight iteration
    and returns its best-so-far checkpoint with [interrupted = true];
    the final polish is skipped, because a fired deadline means
    "return now".  The result is exactly what an uninterrupted run
    would have reported after the completed iterations, so a longer
    budget is never worse (anytime property).

    [observe] is called once per completed iteration with the same
    record that goes into [history] — a progress tap for stall
    detectors, anytime curves and loggers.  Exceptions it raises
    propagate out of [solve] untouched.

    @raise Invalid_argument if [initial] does not have one entry per
    component or places one outside the partitions, or if [workspace]
    was created for another shape. *)

val initial_feasible :
  ?config:Config.t -> ?should_stop:(unit -> bool) -> Problem.t -> Assignment.t option
(** The paper's recipe for seeding GFM/GKL: "use QBP algorithm with
    matrix B set to all zeros.  This will generate an initial feasible
    solution in a few iterations."  Returns the first C1 ∧ C2 feasible
    iterate's best, [None] if none was found within the budget. *)
