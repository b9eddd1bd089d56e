(** Local descent and feasibility repair on the embedded cost surface.

    Two move classes over {m yᵀQ̂y} (both capacity-preserving):

    - {e coordinate passes} — sequential single-component relocation to
      the cheapest partition with room (Gauss–Seidel descent on
      {!Qmatrix.candidate_costs}); components stranded in an over-full
      partition may escape sideways, which repairs C1 overflows left
      by the relaxed GAP solver;
    - {e pair passes} — for each currently violated timing constraint,
      the best {e joint} relocation of both endpoints is evaluated
      exactly (all {m M²} placements) and applied when it lowers the
      embedded cost.  Pair moves clear the violations that no single
      relocation can, because the two endpoints must move together.

    Under an effectively infinite penalty these passes implement the
    feasibility repair used by the solver's probes; under the regular
    penalty the coordinate pass is the solver's polish step. *)

module Assignment := Qbpart_partition.Assignment

(** {1 Candidate-row cache}

    A coordinate pass reads one length-{m M} candidate row per
    component ({!Qmatrix.candidate_costs_at}).  A row depends only on
    the penalty surface and on the positions of the component's netlist
    neighbours and timing partners, so most rows outlive a pass: a
    {!cache} keeps all {m N} rows, one valid byte per component and the
    positions the rows were computed against.  Each pass first diffs
    the assignment against those positions and answers every moved
    component as it answers each move it applies itself, in one of two
    ways chosen by the surface:

    - on an {!Qmatrix.exact} surface it adds the move's effect in
      place to every valid row of the mover's neighbours and partners,
      at {m O(M)} per row, and those rows stay valid (DESIGN.md D25);
    - on any other it clears their valid bytes, and a pass recomputes
      a cleared row with the same kernel when it reaches it
      (DESIGN.md D16).

    A patch never makes an invalid row valid, and only the kernel
    computes a row.  Every value a pass reads is therefore
    bit-identical to a fresh row, for any data.

    Each valid row also keeps its minimum (the least non-NaN entry),
    recomputed with the row wherever the row is, by a pass or by
    {!refresh}; a patch marks it stale, and a pass recomputes a stale
    minimum before it reads it.  A cached pass skips a component whose
    entry at its own partition is [<=] that minimum when its partition
    is not overfull: no entry is strictly cheaper, the overfull tie
    rule cannot fire, and a NaN entry fails the [<=] and is scanned.
    So the skip moves nothing the full scan would not (DESIGN.md D23).

    A cache is bound to one {!Qmatrix.t} at a time (physical
    equality): using it with another matrix — another penalty, another
    problem — drops every row.  It may be shared freely
    across calls and across external edits of the assignment in
    between; it must not be shared between domains. *)

type cache

val cache : m:int -> n:int -> cache
(** An empty cache for [m] partitions and [n] components:
    {m M·N + N + 2M} floats, {m N} ints and {m 2N} bytes.
    @raise Invalid_argument if [m < 1] or [n < 0]. *)

val rows : cache -> float array
(** The {m M·N} row buffer itself, row [j] at offset [j·M]: the
    flat item-major layout of a GAP cost matrix and the index
    {m r = i + j·M} of η.  Only valid rows are current; after
    {!refresh} every row is.  Callers may alias it as a GAP cost but
    must not write it. *)

val refresh : cache -> Qmatrix.t -> Assignment.t -> pool:Qbpart_pool.Dompool.t -> unit
(** Bring the cache to [q] at [u] (as a pass does) and recompute every
    invalid row, in component chunks on [pool] as
    {!Qmatrix.eta_into} schedules them when at least
    {!Qmatrix.parallel_eta_cutoff} rows are invalid, and in one loop on
    the caller's domain otherwise.  Afterwards {!rows} equals
    [Qmatrix.eta_into q u] bit for bit, for any data and any pool size:
    this is STEP 3 of the Burkard iteration under the [Solver] rule
    (DESIGN.md D17).
    @raise Invalid_argument if the cache's shape does not match. *)

val binding : cache -> (Qmatrix.t * Assignment.t) option
(** The matrix the cache is bound to and a copy of the positions its
    valid rows price; [None] before its first use. *)

val valid_row : cache -> int -> (float array * float) option
(** [valid_row c j] is a copy of row [j] and its minimum (recomputed
    first if a patch left it stale) when the row is valid, [None]
    otherwise: what a pass would read, for audits and tests.
    @raise Invalid_argument if [j] is out of range. *)

val coordinate_pass :
  ?delta:float ref ->
  ?dviol:int ref ->
  ?cache:cache ->
  Qmatrix.t ->
  Assignment.t ->
  loads:float array ->
  scratch:float array ->
  bool
(** One in-place pass; [scratch] is a length-{m M} buffer.  Returns
    whether any component moved.  [loads] is kept in sync.  When
    [delta]/[dviol] are given, every applied move adds its exact
    penalized-cost change and violated-direction-count change to them
    (the delta-evaluation invariant of DESIGN.md D7), letting callers
    track the running objective without full recomputes.  With
    [?cache] the rows come from the cache (recomputing only the
    invalid ones) and a component at its row's minimum in a partition
    within capacity is skipped; without it every row is computed fresh
    into [scratch] and scanned.  Moves are identical either way.
    @raise Invalid_argument if the cache's shape does not match. *)

val polish : ?cache:cache -> Qmatrix.t -> Assignment.t -> passes:int -> unit
(** Repeated {!coordinate_pass} until fixpoint or budget.  Without
    [?cache], a transient cache lives for this call only. *)

val polish_tracked :
  ?cache:cache -> Qmatrix.t -> Assignment.t -> passes:int -> float * int
(** {!polish} that returns [(dcost, dviol)]: the exact change of the
    penalized objective and of the violation count over the whole
    descent, accumulated move-by-move in O(deg) per move.  Lets the
    solver price a polished iterate without re-walking every wire and
    constraint. *)

val pair_pass :
  ?delta:float ref ->
  ?dviol:int ref ->
  Qmatrix.t ->
  Assignment.t ->
  loads:float array ->
  max_pairs:int ->
  bool
(** One pass of joint pair relocation over currently violated
    constraints (at most [max_pairs] of them).  Returns whether any
    pair moved.  [delta]/[dviol] as in {!coordinate_pass}; a pair move
    decomposes into two sequential single moves for the violation
    delta. *)

val to_feasible : ?cache:cache -> Qmatrix.t -> Assignment.t -> rounds:int -> bool
(** Alternate {!polish} and {!pair_pass} up to [rounds] times, aiming
    at timing feasibility; returns whether the assignment satisfies
    all timing constraints on exit.  Intended to be called with a
    strict (huge-penalty) matrix.  The violation count is maintained
    incrementally across rounds (one full scan on entry, O(deg) per
    move thereafter).  The coordinate passes read [?cache] (a
    transient one without it); the pair passes price their what-if
    rows fresh, and the next coordinate pass's position diff picks up
    the pairs they moved. *)
