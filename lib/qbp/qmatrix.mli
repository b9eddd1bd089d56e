(** The constraint-embedded cost matrix {m Q̂}, accessed implicitly.

    Section 3 of the paper flattens the solution into a vector {m y}
    of length {m MN} (index {m r = i + j·M}, 0-based here) and builds
    {m Q} with {m q_{r_1 r_2} = a_{j_1 j_2} · b_{i_1 i_2}} off the
    diagonal and {m p_{ij}} on it; timing constraints are embedded by
    overwriting entries of timing-violating candidate pairs with a
    penalty (Theorems 1–2).  Section 4.3 then insists that {m Q̂} is
    {e never} materialized: "only the non-zero elements of Q-hat are
    retrieved on demand from a sparse representation derived from
    connection matrix A".  This module is that sparse representation.

    The problem must be normalized ({m α = β = 1}); {!make} normalizes
    automatically.

    Two η conventions are provided (DESIGN.md, decision D1):

    - the {e solver} rule (default): the cost of candidate {m (i, j)}
      against the current placement {m u} of all other components —
      diagonal {m p_{ij}} always included, each wire of {m j} counted
      with its full weight and with the evaluator's orientation, and
      both directions of every timing constraint of {m j} charged;

    - the {e paper} rule ([`Paper]): the literal STEP-3 column sum
      {m η_s = Σ_r q̂_{rs} u_r}, which sees only incoming constraint
      directions and includes {m p_{ij}} only for the currently
      selected coordinate. *)

module Assignment := Qbpart_partition.Assignment

type rule = Solver | Paper

type t

val make : ?penalty:float -> Problem.t -> t
(** [penalty] defaults to the paper's experimental value {!default_penalty}
    (50).  @raise Invalid_argument if [penalty <= 0]. *)

val default_penalty : float

val problem : t -> Problem.t
(** The normalized problem backing this matrix. *)

val penalty : t -> float

val exact : t -> bool
(** Whether the surface is exact ({!Problem.exact_surface} at this
    penalty, DESIGN.md D25): every row {!candidate_costs_at} computes
    is a sum of exact integers, so adding a move's exact difference to
    a row gives the kernel's row bit for bit.  {!Repair}'s row cache
    patches rows in place on such a surface and invalidates them on
    any other.  Decided in O(1) by {!make}. *)

val dim : t -> int
(** {m MN}. *)

(** {1 Entry-wise access (paper §3.3 convention)} *)

val entry : t -> int -> int -> float
(** [entry t r1 r2] is {m q̂_{r_1 r_2}} exactly as in the worked
    example of section 3.3: {m p_{ij}} on the diagonal, 0 elsewhere
    within a component's own block, and for {m j_1 ≠ j_2} either the
    penalty (if assigning {m j_1→i_1, j_2→i_2} violates
    {m D(i_1,i_2) ≤ D_C(j_1,j_2)}) or {m a_{j_1 j_2} · b_{i_1 i_2}}. *)

val dense : t -> float array array
(** Materialized {m MN×MN} matrix — for tiny instances, tests, and
    printing the Figure-1 example.
    @raise Invalid_argument if {m MN > 4096}. *)

val value : t -> Assignment.t -> float
(** {m yᵀQ̂y} computed entry-wise from {!entry} (each unordered wire
    contributes twice, per the paper's symmetric-A convention).  Used
    by tests to cross-check {!Problem.penalized_objective}; note the
    two differ by the wire double-counting convention. *)

(** {1 Solver access} *)

val candidate_costs_into : t -> Assignment.t -> j:int -> float array -> unit
(** Allocation-free variant of {!candidate_costs} writing into a
    caller-provided length-{m M} buffer (hot path of the polish
    pass). *)

val candidate_costs_at : t -> Assignment.t -> j:int -> off:int -> float array -> unit
(** {!candidate_costs_into} writing at offset [off] of a larger buffer:
    the kernel behind the [Solver]-rule η and {!Repair}'s row cache.
    The row reads [u] only at [j]'s netlist neighbours and timing
    partners, never at [j] itself.  Its float operations are part of
    the contract (DESIGN.md D14, D23): each entry starts from
    {m p_{ij}} (or 0), then adds [w *. b] for each wire of [j] in
    adjacency-slot order, then for each timing-partner slot in order
    the penalty for a violated outgoing budget and then for a violated
    incoming one.  The kernel reads {!Qbpart_topology.Topology.bt_flat}
    for the [j < j'] orientation and walks delay-order prefixes for
    the penalties; neither changes a value. *)

val candidate_costs : t -> Assignment.t -> j:int -> float array
(** [candidate_costs t u ~j] is the length-{m M} vector of costs of
    placing component [j] at each partition against the current
    placement [u] of everything else: {m p_{ij}} plus [j]'s wires
    (evaluator orientation, full weight) plus the penalty for each
    violated direction of each timing constraint of [j].  This is the
    [Solver]-rule η restricted to one component, and the exact change
    surface used by the polish pass. *)

val delta : t -> Assignment.t -> j:int -> i:int -> float
(** [delta t u ~j ~i] is the {e exact} change of the penalized
    objective ({!Problem.penalized_objective} at this matrix's
    penalty) when component [j] moves from [u.(j)] to partition [i],
    everything else fixed — computed in {m O(deg(j))} from [j]'s wires
    and timing partners instead of the {m O(wires + constraints)} full
    recompute.  The delta-evaluation invariant (DESIGN.md D7):
    {m delta t u j i = penalized(u[j↦i]) − penalized(u)} exactly
    (property-tested over random move sequences). *)

val violations_delta : t -> Assignment.t -> j:int -> i:int -> int
(** Change in the number of violated directed timing budgets under the
    same move; the integer companion of {!delta}, used to keep
    feasibility checks incremental. *)

val violations : t -> Assignment.t -> int
(** Number of violated directed timing budgets, the integer companion
    of {!violations_delta}: equal to [Check.count] on the same
    assignment, but read from the partner CSR (each stored budget
    counted once, as a finite outgoing budget of its source row)
    without allocating.  The solver's hot path uses this; the
    independent audits ([Check], [Certify]) keep reading the raw
    budget store. *)

val eta : ?rule:rule -> t -> Assignment.t -> float array
(** STEP 3: the linearization vector, length {m MN}, index
    {m r = i + j·M}. *)

val eta_into :
  ?rule:rule -> ?pool:Qbpart_pool.Dompool.t -> t -> Assignment.t -> float array -> unit
(** Allocation-free {!eta}, writing into a caller-provided length-{m MN}
    buffer (the solver reuses one buffer across all iterations).
    [?pool] fans the recompute across worker domains by component
    chunks; both rules write only each component's own {m M}-wide
    block, so the result is bit-identical for every pool size.
    @raise Invalid_argument on length mismatch. *)

val parallel_eta_cutoff : int
(** 128: below this many components to compute, fan-out bookkeeping
    costs more than the work it splits. *)

val component_chunks :
  Qbpart_pool.Dompool.t -> n:int -> (jlo:int -> jhi:int -> unit) -> unit
(** The scheduling of {!eta_into}: [f ~jlo ~jhi] over contiguous chunks
    of the components [0, n), fanned across the pool's domains — one
    call over the whole range when the pool is sequential or [n] is
    below the fan-out cutoff.  Each [f] must write only the blocks of
    its own components; then the result is the same for every pool
    size. *)

(** {1 The bound vector ω, on demand} *)

type omega_memo
(** The entries of the bound vector {m ω} of equation (2) that STEP 3
    has read so far: {m M·N} floats and one known byte per entry.  It
    is bound to one matrix and rule at a time (physical equality on
    the matrix); {!xi} with another one forgets every entry.  It must
    not be shared between domains. *)

val omega_memo : m:int -> n:int -> omega_memo
(** An empty memo for [m] partitions and [n] components.
    @raise Invalid_argument if [m < 1] or [n < 0]. *)

val xi : rule:rule -> t -> omega_memo -> Assignment.t -> float
(** STEP 3's {m ξ = Σ_j ω(u(j), j)}, summed over [j] ascending from
    0.  {m ω(i, j) ≥ Σ_s q̂_{rs} y_s} for every {m y ∈ S}: {m p_{ij}},
    plus each wire's weight times the largest {m b} it can meet (the
    row maximum of {m B} when [j] is the wire's lower endpoint under
    the [Solver] rule, the column maximum otherwise), plus per timing
    partner one penalty for each direction that some placement of the
    partner violates (only the incoming one under [Paper]).  An entry
    is computed the first time it is read, with these terms added in
    this order, and kept in the memo, so the result is bit for bit the
    sum over a fully materialized {m ω}.
    @raise Invalid_argument if the memo's or [u]'s shape does not
    match. *)
