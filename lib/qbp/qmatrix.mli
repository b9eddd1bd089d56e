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

(** {1 Incremental eta maintenance}

    Every η entry is a sum of terms each depending on the position of
    exactly one other component (plus, for [Paper], a diagonal term at
    the component's own position), so when component {m j} moves the
    only entries that change are the {m M}-wide blocks of {m j}'s
    netlist and timing partners — an {m O(deg(j)·M)} patch instead of
    the {m O((wires+constraints)·M)} full {!eta_into} recompute
    (DESIGN.md, decision D9).  Patches commute, so move batches can be
    replayed in any order; float drift from repeated patching is
    bounded by a periodic from-scratch resync. *)

type eta_state

val eta_state :
  ?rule:rule -> ?resync_every:int -> ?patch_limit:int -> ?buf:float array ->
  ?pool:Qbpart_pool.Dompool.t -> t -> Assignment.t -> eta_state
(** Initialize the maintained η for placement [u] (one full
    {!eta_into}).  [resync_every] (default 256) bounds drift: after
    that many patched moves the vector is recomputed from scratch.
    [patch_limit] (default {m max(1, N/2)}) caps how many components
    {!eta_sync} will patch before falling back to a full recompute.
    [?buf] supplies the length-{m MN} backing buffer (pooled callers);
    otherwise one is allocated.  [?pool] fans the initial build, every
    resync, and the per-partner patches of hub components across worker
    domains — scheduling only, the maintained vector stays
    bit-identical to the sequential one.
    @raise Invalid_argument on bad sizes. *)

val eta_buffer : eta_state -> float array
(** The maintained length-{m MN} vector itself (the [?buf] array if
    one was supplied).  Callers may read it freely — the Burkard loop
    aliases it as the STEP-4 GAP cost matrix — but must mutate it only
    through {!eta_apply_move}/{!eta_sync}. *)

val eta_positions : eta_state -> Assignment.t
(** The placement the buffer currently reflects (owned by the state;
    do not mutate). *)

val eta_apply_move : eta_state -> j:int -> int -> unit
(** [eta_apply_move st ~j i] moves component [j] to partition [i],
    patching the partner blocks in {m O(deg(j)·M)}. *)

val eta_sync : eta_state -> Assignment.t -> int
(** Diff the target placement against {!eta_positions} and patch each
    moved component; falls back to one full recompute when more than
    [patch_limit] components moved.  The result is bit-identical to
    calling {!eta_apply_move} for each moved component in ascending
    order, but a batch that would cross several drift resyncs pays for
    only the last one (the earlier ones are overwritten).  Returns how
    many components had moved. *)

val eta_resync : eta_state -> unit
(** Force a from-scratch recompute at the current positions (resets
    the drift counter).  Exposed for tests and paranoid callers. *)

(** {1 ECO rebinding}

    Support for warm-serving engineering-change-order deltas
    ({!Qbpart_netlist.Delta}): after {!Problem.apply_delta} produced
    the edited problem, the implicit matrix and a maintained η state
    can be patched instead of rebuilt. *)

val apply_delta : t -> Problem.t -> t
(** Rebind the implicit matrix to an edited problem, keeping the
    penalty.  O(1): the matrix is implicit, so "patching Q" is
    swapping the problem it reads from.
    @raise Invalid_argument if the partition count changed. *)

val eta_rebind : eta_state -> t -> touched:int list -> eta_state
(** [eta_rebind st q ~touched] rebinds a maintained η state to the
    edited matrix [q] (from {!apply_delta}), refreshing exactly the
    [touched] component rows — the endpoints of changed wires and
    budgets, as reported by [Delta.apply] — against the state's
    current positions.  {m O(Σ_{j∈touched} deg(j)·M)} under the
    [Solver] rule; the [Paper] rule's column sums are not row-local,
    so it falls back to one full recompute.  The η buffer and position
    array are shared with [st].
    @raise Invalid_argument if {m M} or {m N} changed (rebuild the
    state with {!eta_state} instead) or a touched id is out of
    range. *)

val eta_drift : eta_state -> float
(** Max-abs difference between the maintained buffer and a
    from-scratch {!eta_into} at the current positions: the
    drift-bounded audit for patched states.  Allocates one {m MN}
    scratch vector. *)

val omega : ?rule:rule -> t -> float array
(** The bound vector {m ω} of equation (2):
    {m ω_r ≥ Σ_s q̂_{rs} y_s} for every {m y ∈ S}, computed per row as
    {m p_{ij} + Σ_{j'} a_{jj'} · max_{i'} b} plus the worst-case
    penalty terms.  Computed once per solve. *)

val xi : t -> omega:float array -> Assignment.t -> float
(** STEP 3's {m ξ = Σ_r ω_r u_r}. *)

val eta_cost_matrix : float array -> m:int -> n:int -> float array array
(** Reshape a flat {m MN} vector (η or the accumulated {m h}) into the
    {m M×N} cost matrix of the STEP-4/6 GAP subproblem. *)

val eta_cost_matrix_into : float array -> m:int -> n:int -> float array array -> unit
(** Allocation-free {!eta_cost_matrix} writing into a caller-provided
    {m M×N} matrix, so the GAP cost matrix can be reused across
    iterations.  @raise Invalid_argument on shape mismatch. *)
