(** Partition topologies.

    The paper's input part II: a fixed set {m I} of {m M} partitions
    with capacities {m c_i}, an {m M×M} wiring-cost matrix {m B}
    ({m b_{i_1 i_2}} = cost of routing one wire from partition
    {m i_1} to {m i_2}) and an {m M×M} routing-delay matrix {m D}.
    The formulation assumes {e no} relationship between {m B} and
    {m D}; both are stored independently here.  Instances are
    immutable. *)

type t

val make :
  ?names:string array ->
  capacities:float array ->
  b:float array array ->
  d:float array array ->
  unit ->
  t
(** @raise Invalid_argument if dimensions disagree, a capacity is
    negative, or [b]/[d] contain negative entries.  The matrices are
    copied. *)

val m : t -> int
(** Number of partitions, the paper's {m M}. *)

val capacity : t -> int -> float
(** [capacity t i] is {m c_i}. *)

val capacities : t -> float array
(** Fresh array. *)

val total_capacity : t -> float

val b : t -> int -> int -> float
(** [b t i1 i2] is {m b_{i_1 i_2}}. *)

val d : t -> int -> int -> float
(** [d t i1 i2] is {m D(i_1, i_2)}. *)

val b_matrix : t -> float array array
val d_matrix : t -> float array array
(** Fresh copies. *)

(** {2 Flat views}

    {m B} and {m D} are stored flat and row-major: entry
    {m (i_1, i_2)} sits at [i1 * M + i2].  The arrays below are the
    topology's own storage, shared with [t], and must not be mutated.
    All of them are built eagerly by {!make}, never on first use: the
    kernels that read them run inside solver iterations and from
    several domains at once.
    Per-wire × per-partition kernels grab them once and index them:
    {!b} and {!d} return a boxed float on every call from another
    module, which made those kernels allocate per element. *)

val b_flat : t -> float array
(** {m B}, row-major, length {m M²}. *)

val d_flat : t -> float array
(** {m D}, row-major, length {m M²}. *)

val capacity_array : t -> float array
(** The capacities {m c_i}, length {m M} ({!capacities} without the
    copy). *)

val bt_flat : t -> float array
(** {m Bᵀ}, row-major, length {m M²}: entry [a * M + i] is
    {m b_{i a}}.  Row [a] holds column [a] of {m B} contiguously, so a
    kernel reading {m b_{i a}} for every [i] walks one row, as it does
    for {m b_{a i}} in {!b_flat}.  Same values, same bits. *)

val b_row_max : t -> float array
(** Entry [i] is {m max(0, max_{i'} b_{i i'})}, folded over
    {m i' = 0, 1, …} with [Float.max] from 0, length {m M}: used for
    the Burkard bound vector {m ω}. *)

val b_col_max : t -> float array
(** Entry [i] is {m max(0, max_{i'} b_{i' i})}, folded the same way:
    the column-wise companion of {!b_row_max}. *)

(** Partitions ranked by delay, for each position of a partner. *)
type delay_order = {
  ids : int array;
      (** length {m M²}: block [a] (at [a * M]) lists all {m M}
          partitions by delay, largest first, ties by partition id *)
  delays : float array;  (** the matching delays, so [delays.(a * M)] is the block's maximum *)
}

val d_col_order : t -> delay_order
(** Block [a] ranks the partitions [i] by {m D(i, a)}, the delay to
    [a].  For any budget, the partitions with {m D(i, a) > budget} are
    a prefix of block [a]: a kernel that adds one term per violating
    partition walks that prefix and stops at the first delay within
    budget. *)

val d_row_order : t -> delay_order
(** Block [a] ranks the partitions [i] by {m D(a, i)}, the delay from
    [a]; the same prefix property. *)

val name : t -> int -> string
(** Defaults to ["p<i>"]. *)

val max_b : t -> float
(** Largest entry of {m B}. *)

val max_d : t -> float
(** Largest entry of {m D}. *)

val b_symmetric : t -> bool
val d_symmetric : t -> bool

val with_zero_b : t -> t
(** Same topology with {m B = 0}: the paper's recipe for producing an
    initial feasible solution ("use QBP algorithm with matrix B set to
    all zeros"). *)

val scale_b : t -> float -> t
(** Topology with every {m B} entry multiplied by a factor; implements
    the PP(α,β) → PP'(1,1) rescaling of section 3. *)

val pp : Format.formatter -> t -> unit
