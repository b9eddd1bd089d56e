(** Generalized Assignment Problem instances.

    Minimize {m Σ_j c_{σ(j), j}} over assignments {m σ} of [n] items to
    [m] knapsacks subject to knapsack capacities
    {m Σ_{σ(j)=i} w_{ij} ≤ cap_i}.

    This is the subproblem solved twice per iteration of the
    generalized Burkard heuristic (paper section 4.3: "in STEP 4 and
    STEP 6 we are actually solving Generalized Assignment Problems")
    and, with {m β = 0} and no timing constraints, the paper's
    section 2.2.2 special case of the partitioning problem itself.
    Weights may depend on the knapsack ({m w_{ij}}), as in the GAP
    literature; the partitioning use-case has {m w_{ij} = s_j}.

    Every constructor also sorts the items by weight once per distinct
    weight column ([by_weight]/[order_of]): {!Mthg}'s refresh cascade
    walks that order with a cursor per knapsack.  The orders are built
    eagerly, never on first use, because {!fan_out} views of one
    instance are read from several domains at once.

    {b Storage is flat and unboxed}: cost and weight are single
    [float array]s in {e item-major} order — entry {m (i, j)} lives at
    index {m j·m + i}.  Every hot loop of {!Mthg}, {!Improve} and
    {!Lagrangian} scans the [m] knapsack entries of one item, which
    this layout makes a contiguous unboxed block (one or two cache
    lines) instead of a gather across [m] boxed rows.  The layout is
    deliberately identical to the solver's eta vector
    ({m r = i + j·M}), so a Burkard iteration can alias its eta/h
    buffers as the GAP cost matrix with zero copying. *)

type t = private {
  m : int;                  (** knapsacks *)
  n : int;                  (** items *)
  cost : float array;       (** flat item-major [m*n]: {m c_{ij}} at [j*m + i] *)
  weight : float array;     (** flat item-major [m*n]: {m w_{ij}}, all > 0 *)
  capacity : float array;   (** length [m] *)
  owner : int option;
      (** the {!Domain} that [borrow]ed the aliased buffers; [None]
          for [make]'s owned copies *)
  by_weight : int array;
      (** item ids sorted by {m w_{ij}} descending (ties by id), one
          block of [n] per distinct weight column *)
  order_of : int array;
      (** length [m]: offset of knapsack [i]'s block in [by_weight].
          Knapsacks with identical weight columns share one block, so
          the partitioning case {m w_{ij} = s_j} stores a single
          order. *)
}

val index : t -> i:int -> j:int -> int
(** Flat index of entry {m (i, j)}: [j*m + i]. *)

val cost_at : t -> i:int -> j:int -> float
val weight_at : t -> i:int -> j:int -> float
(** Convenience accessors (tests, printing); hot loops inline the
    index arithmetic instead. *)

val make :
  cost:float array array ->
  weight:float array array ->
  capacity:float array ->
  t
(** Construction from conventional [m×n] boxed matrices; the instance
    stores validated flat copies.
    @raise Invalid_argument on dimension mismatch, non-positive
    weights, negative capacities, or NaN entries. *)

val make_uniform :
  cost:float array array -> sizes:float array -> capacity:float array -> t
(** Item weights independent of the knapsack — the partitioning case
    ({m w_{ij} = s_j}). *)

val uniform_weights : sizes:float array -> m:int -> float array
(** The flat item-major weight array with {m w_{ij} = s_j} — built
    once per portfolio start (weights are iteration-invariant) and
    lent to {!borrow}. *)

val borrow :
  cost:float array ->
  weight:float array ->
  capacity:float array ->
  n:int ->
  t
(** Zero-copy {!make} for hot loops: the instance {e aliases} the
    caller's flat item-major arrays (length [m*n] with
    [m = Array.length capacity]), so refreshing [cost] in place — or
    simply aliasing a buffer the caller already maintains, like the
    Burkard eta vector — and re-solving avoids the per-call copy and
    validation of two {m m×n} matrices.  The caller owns the
    invariants ([make]'s positivity/NaN checks are skipped), and must
    not change [weight] while the instance is in use: the weight
    orders are sorted here, once.  The
    instance remembers the calling domain: the aliased buffers are
    single-domain scratch space (each portfolio start builds its own),
    and {!verify_domain} enforces that at every MTHG entry point.
    @raise Invalid_argument if there are no knapsacks or the array
    lengths disagree with [m*n]. *)

val refresh_cost : t -> float array -> unit
(** Overwrite the cost matrix from a flat item-major source (a blit) —
    for callers that cannot alias the source buffer outright.
    @raise Invalid_argument on length mismatch. *)

val verify_domain : t -> unit
(** No-op for [make]-built instances.  For [borrow]ed instances,
    @raise Invalid_argument when called from a domain other than the
    borrower — a borrowed instance crossing domains means two solvers
    could scribble on the same cost/weight buffers concurrently. *)

val fan_out : t -> t
(** A view of the same instance (same aliased buffers) with the domain
    guard released, for a fork-join fan-out of {e read-only} solver
    legs onto other domains while the borrower blocks until they all
    finish.  The caller owns that discipline: the view passes
    {!verify_domain} everywhere, so misusing it re-opens exactly the
    cross-domain scribbling the guard exists to catch.  Constant-time
    (a record copy); [make]-built instances are returned unchanged in
    behaviour. *)

val cost_of : t -> int array -> float
(** Objective of an assignment (item [j] in knapsack [a.(j)]). *)

val loads : t -> int array -> float array
val feasible : t -> int array -> bool
(** Capacity feasibility; also false if some item is out of range. *)

val excess : t -> int array -> float
(** Total capacity overflow; 0 iff feasible. *)
