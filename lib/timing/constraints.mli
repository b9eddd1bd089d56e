(** Timing constraints: the sparse matrix {m D_C}.

    {m D_C(j_1, j_2)} is the maximum signal-routing delay allowed from
    component {m j_1} to component {m j_2} (paper section 2.1, input
    I.4).  Entries are directed; absent entries read as {m +∞} — the
    paper notes that most of the {m N²} potential constraints involve
    pairs with "no actual electrical connection or cycle time
    constraints between them" and are discarded, so only the critical
    constraints are stored.

    A store is immutable.  {!Builder} collects the budgets and builds
    the store once, as the flat partner CSR the solvers read: a
    per-component index over both outgoing and incoming budgets.  A
    built store can be shared across domains as is. *)

type t

(** {1 Construction} *)

module Builder : sig
  type constraints := t
  type t
  (** Growable flat arrays of raw directed budgets. *)

  val create : n:int -> t
  (** No budgets yet on [n] components.
      @raise Invalid_argument if [n < 0]. *)

  val add : t -> int -> int -> float -> unit
  (** [add b j1 j2 budget] constrains the routing delay from [j1] to
      [j2].  A later budget on the same directed pair replaces the kept
      one only if it is strictly smaller, so the tightest budget is
      kept (the first added of equal ones).
      @raise Invalid_argument on self-pairs, out-of-range ids, negative
      or NaN budgets, and after {!build}.  Infinite budgets are ignored
      (no constraint). *)

  val add_sym : t -> int -> int -> float -> unit
  (** Constrain both directions with the same budget. *)

  val build : t -> constraints
  (** The store: one counting pass files the budgets by row, a stable
      sort orders each row by partner and a merge applies {!add}'s
      rule.  [b] accepts no further additions. *)
end

val none : n:int -> t
(** No constraints on [n] components. *)

(** {1 Reading} *)

val n : t -> int

val budget : t -> int -> int -> float
(** [budget t j1 j2] is {m D_C(j_1,j_2)}, {m +∞} when absent.  A
    binary search of [j1]'s partner row.
    @raise Invalid_argument on out-of-range ids. *)

val mem : t -> int -> int -> bool
(** Is there a finite directed budget from [j1] to [j2]?
    @raise Invalid_argument on out-of-range ids. *)

val count : t -> int
(** Number of finite directed budgets — the paper's Table I "# of
    Timing Constraints" counts these critical constraints. *)

val pair_count : t -> int
(** Number of distinct unordered constrained pairs. *)

val empty : t -> bool
(** No finite budget at all. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** Iterate over the finite directed budgets [j1 -> j2], by [j1]
    ascending and then by [j2] ascending. *)

val fold : t -> init:'a -> f:('a -> int -> int -> float -> 'a) -> 'a
(** {!iter}'s order. *)

val equal : t -> t -> bool
(** Same components and the same budgets. *)

(** {2 Flat partner CSR}

    The per-component partner index is stored struct-of-arrays:
    component [j]'s partners are
    [partner_ids.(partner_offsets.(j) .. partner_offsets.(j+1) - 1)],
    ascending, with both directed budgets in unboxed float arrays.
    The arrays are shared with [t] and must not be mutated.  Hot loops
    should grab them once and iterate by index. *)

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
