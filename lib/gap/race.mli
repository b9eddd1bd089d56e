(** Per-call GAP solver portfolio ("race").

    The Burkard inner loop solves two GAPs per iteration (STEP 4 and
    STEP 6) with {!Mthg} alone.  MTHG is a construction heuristic: on
    some subproblems a Lagrangian-guided construction or an exact
    branch-and-bound (affordable only on small instances) finds a
    strictly better minimizer of the same linearized cost.  A race
    runs the enabled legs on the same instance and returns the best
    answer under a deterministic ranking:

    + a capacity-feasible candidate always beats an infeasible one;
    + within a class, lower cost wins (infeasible candidates compare
      by total capacity excess first, then cost);
    + exact ties go to the earlier leg in the fixed order
      {!solver.Mthg}, {!solver.Lagrangian}, {!solver.Exact} — so the
      winner is a pure function of the instance, never of timing.

    The exact leg is {e gated}: it runs only when the instance is
    small enough ([n <= exact_max_items] and
    [m*n <= exact_max_cells]), and its node budget is capped so a
    pathological subproblem degrades to "no candidate" instead of
    hanging the iteration. *)

type solver = Mthg | Lagrangian | Exact

val solver_name : solver -> string

type config = {
  mthg_criteria : Mthg.criterion list;
      (** criteria for the MTHG leg (default [[Cost]]: the race itself
          provides the diversity the extra criteria bought) *)
  mthg_improve : Mthg.improver;          (** default [`Shift] *)
  lagrangian_iterations : int;
      (** subgradient steps fitting the multipliers that price the
          greedy leg; [0] disables the leg entirely (default 8) *)
  exact_max_items : int;                 (** exact leg gate: [n] at most this (default 12) *)
  exact_max_cells : int;                 (** and [m*n] at most this (default 96) *)
  exact_node_limit : int;                (** branch-and-bound node cap (default 20_000) *)
}

val default : config

type workspace
(** Scratch for one [(m, n)] shape: the embedded {!Mthg.workspace}
    (the MTHG leg's, candidate lists included), the
    multiplier/usage/residual vectors, the candidate and winner
    assignments, and the Lagrangian leg's own per-item minima and
    candidate lists for its shift polish, so the two legs share no
    buffer when they run concurrently.  Single-domain, like the
    {!Gap.borrow}ed buffers it is used with. *)

val workspace : m:int -> n:int -> workspace
(** @raise Invalid_argument if [m < 1] or [n < 0]. *)

val run :
  ?config:config ->
  ?pool:Qbpart_pool.Dompool.t ->
  ?ws:workspace ->
  Gap.t ->
  (solver * int array * float) list
(** All candidates the enabled legs produced, as
    [(leg, assignment, cost)], in leg order.  Assignments are fresh
    copies (never workspace-owned); mainly for tests and diagnostics —
    the hot path is {!solve_relaxed}. *)

val solve_relaxed :
  ?config:config -> ?pool:Qbpart_pool.Dompool.t -> ?ws:workspace -> Gap.t -> int array
(** The race winner under the ranking above.  Like
    {!Mthg.solve_relaxed} this never fails: the MTHG leg always
    produces a candidate (possibly capacity-infeasible on over-tight
    instances).  With [?ws] the returned array is owned by the
    workspace — valid until the next call using the same workspace.
    [?pool] runs the legs concurrently on worker domains (disjoint
    scratch per leg); the ranking is applied after all legs finish, in
    fixed leg order, so the winner is independent of pool size and leg
    completion order.
    @raise Invalid_argument if the workspace shape does not match the
    instance. *)

val winner : ?config:config -> ?pool:Qbpart_pool.Dompool.t -> ?ws:workspace -> Gap.t -> solver
(** Which leg {!solve_relaxed} would return (same ranking, same
    determinism); for tests and bench labels. *)
