(** Partitioning problem instances: the paper's {m PP(α, β)}.

    Bundles every input of section 2.1: the circuit (components,
    sizes, interconnections), the partition topology (capacities,
    {m B}, {m D}), the timing budgets {m D_C}, the linear
    assignment-cost matrix {m P}, and the scaling factors {m α, β}.

    {m PP(1, 0)} with no timing constraints is the Generalized
    Assignment Problem; {m PP(1, 0)} with a deviation-cost {m P} is
    the MCM/TCM re-partitioning problem of section 2.2.1; with unit
    sizes, {m M = N} and no timing constraints it degenerates to the
    Quadratic Assignment Problem. *)

module Netlist := Qbpart_netlist.Netlist
module Topology := Qbpart_topology.Topology
module Constraints := Qbpart_timing.Constraints
module Assignment := Qbpart_partition.Assignment

type integrality
(** What {!exact_surface} reads, computed once by {!make} over
    {m α·P} and {m β·B}, the values {!normalize} stores, so a
    normalized problem carries it unchanged: whether {m α·P}, {m β·B}
    and every wire weight are integers and {m α·P} holds no [-0.0],
    and the largest {m |α·p_{ij}|}, {m β·b(i_1, i_2)}, {m Σ|w|} over
    one component's wires and timing-partner count of one component.
    One pass over {m P}, {m B}, the adjacency weights and the partner
    offsets, allocating nothing. *)

type t = private {
  netlist : Netlist.t;
  topology : Topology.t;
  constraints : Constraints.t; (** empty when timing is relaxed *)
  p : float array array option; (** {m M×N}; [None] means all-zero *)
  alpha : float;
  beta : float;
  integrality : integrality;
}

val make :
  ?alpha:float ->
  ?beta:float ->
  ?p:float array array ->
  ?constraints:Constraints.t ->
  Netlist.t ->
  Topology.t ->
  t
(** [alpha], [beta] default to 1.  @raise Invalid_argument if [p] is
    not {m M×N}, contains NaN, if the constraint set was built for a
    different component count, or if a scaling factor is negative. *)

val n : t -> int
val m : t -> int

val normalize : t -> t
(** The section-3 reduction {m PP(α,β) → PP'(1,1)}: fold [alpha] into
    {m P} and [beta] into {m B}.  Objectives are preserved exactly;
    the result has [alpha = beta = 1].  The QBP machinery operates on
    normalized problems. *)

val is_normalized : t -> bool

val exact_surface : t -> penalty:float -> bool
(** Whether the penalty surface of [t] under [penalty] is {e exact}
    (DESIGN.md D25): {m α·P}, {m β·B}, every wire weight and [penalty]
    are integers, {m α·P} holds no [-0.0], and
    {m max|p| + (max Σ|w|)·(max b) + 2·(max partners)·}[penalty] is at
    most {m 2^52}.  Then every product, partial sum and entry of a
    candidate row ({!Qmatrix.candidate_costs_at}) is an exact integer,
    so the row does not depend on the order of its additions.  A
    [-0.0] in {m P} is excluded because the kernel can return [-0.0]
    where an exact difference added to a row gives [+0.0].  O(1). *)

val p_entry : t -> i:int -> j:int -> float
(** {m p_{ij}} (0 when [p] is [None]); after {!normalize} this
    includes the {m α} factor. *)

val objective : t -> Assignment.t -> float
(** Equation (1): {m α·Σp + β·Σab}. *)

val delta_objective : t -> Assignment.t -> j:int -> i:int -> float
(** [delta_objective t a ~j ~i] is the {e exact} change of
    {!objective} when component [j] moves from [a.(j)] to partition
    [i] with everything else fixed, computed in {m O(deg(j))} from
    [j]'s incident wires.  The incremental-evaluation counterpart of
    {!Qmatrix.delta}, which additionally tracks the timing penalty. *)

val penalized_objective : t -> penalty:float -> Assignment.t -> float
(** {!objective} plus [penalty] per violated directed timing
    constraint; the solver's acceptance metric. *)

val capacity_feasible : t -> Assignment.t -> bool
val timing_feasible : t -> Assignment.t -> bool
val feasible : t -> Assignment.t -> bool
(** C1 ∧ C2 (C3 is structural in the representation). *)

val deviation_p : t -> initial:Assignment.t -> float array array
(** The section 2.2.1 deviation-cost matrix
    {m p_{ij} = s_j · b(i, 𝒜_{initial}(j))}: distance is measured with
    the topology's {m B} metric (Manhattan for grid topologies, as in
    the paper). *)

(** {1 ECO deltas} *)

type delta_result = {
  dr_problem : t;  (** The edited problem. *)
  dr_new_of_old : int array;  (** old id -> new id, [-1] if removed. *)
  dr_old_of_new : int array;  (** new id -> old id, [-1] if added. *)
  dr_dims_changed : bool;  (** Components were added or removed. *)
}

val apply_delta :
  ?topology:(Netlist.t -> Topology.t) ->
  t ->
  Qbpart_netlist.Delta.t ->
  (delta_result, Qbpart_netlist.Delta.error) result
(** Apply an engineering-change-order delta: edit the netlist once
    ({!Qbpart_netlist.Delta.apply}, which keeps the old netlist when the
    delta only retimes), remap surviving timing budgets, apply retimes
    (tighten-only), and rebuild the problem around the result,
    preserving {m α}, {m β} and (for dimension-preserving deltas)
    {m P}.  [?topology] maps the edited netlist to the partition
    topology: serving layers recompute grid capacity from the edited
    total size, so the edited instance hashes identically to a cold
    submit of the same netlist.  It defaults to the old topology.
    Fails with a structured error if the delta is invalid or if it
    changes {m N} while a fixed {m P} is set; the old problem is never
    modified, so a caller can validate a delta by applying it here. *)
