(** Timing constraints: the sparse matrix {m D_C}.

    {m D_C(j_1, j_2)} is the maximum signal-routing delay allowed from
    component {m j_1} to component {m j_2} (paper section 2.1, input
    I.4).  Entries are directed; absent entries read as {m +∞} — the
    paper notes that most of the {m N²} potential constraints involve
    pairs with "no actual electrical connection or cycle time
    constraints between them" and are discarded, so only the critical
    constraints are stored.

    The structure is mutable during construction; solvers access it
    through the flat partner CSR below, a per-component index over
    both incoming and outgoing budgets that is (re)built lazily. *)

type t

val create : n:int -> t
(** No constraints on [n] components. *)

val n : t -> int

val add : t -> int -> int -> float -> unit
(** [add t j1 j2 budget] constrains the routing delay from [j1] to
    [j2].  If a budget already exists the tighter (smaller) one is
    kept.
    @raise Invalid_argument on self-pairs, out-of-range ids, negative
    or NaN budgets.  Infinite budgets are ignored (no constraint). *)

val add_sym : t -> int -> int -> float -> unit
(** Constrain both directions with the same budget. *)

val budget : t -> int -> int -> float
(** [budget t j1 j2] is {m D_C(j_1,j_2)}, {m +∞} when absent. *)

val mem : t -> int -> int -> bool
(** Is there a finite directed budget from [j1] to [j2]? *)

val count : t -> int
(** Number of finite directed budgets — the paper's Table I "# of
    Timing Constraints" counts these critical constraints. *)

val pair_count : t -> int
(** Number of distinct unordered constrained pairs. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** Iterate over finite directed budgets. *)

val fold : t -> init:'a -> f:('a -> int -> int -> float -> 'a) -> 'a

(** {2 Flat partner CSR}

    The per-component partner index is stored struct-of-arrays:
    component [j]'s partners are
    [partner_ids.(partner_offsets.(j) .. partner_offsets.(j+1) - 1)],
    ascending, with both directed budgets in unboxed float arrays.
    The arrays are shared with [t] and must not be mutated; they are
    rebuilt lazily after any {!add}.  Hot loops should grab them once
    and iterate by index. *)

val prebuild : t -> unit
(** Force the lazy partner index.  Call once before sharing [t]
    read-only across domains so no two domains race to build it. *)

val partner_offsets : t -> int array
(** Row offsets, length [n + 1]. *)

val partner_ids : t -> int array
(** Partner ids, per-row ascending. *)

val partner_budget_out : t -> float array
(** {m D_C(j, other)} aligned with {!partner_ids}; {m +∞} if
    unconstrained. *)

val partner_budget_in : t -> float array
(** {m D_C(other, j)} aligned with {!partner_ids}; {m +∞} if
    unconstrained. *)

val partner_degree : t -> int -> int
(** Number of constraint partners of [j]. *)

val max_partner_degree : t -> int
(** Largest number of constraint partners of any component. *)

val copy : t -> t
val empty : t -> bool
val pp : Format.formatter -> t -> unit
