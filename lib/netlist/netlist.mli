(** Circuits: components plus weighted interconnections.

    This is the circuit description of the paper's section 2.1 (input
    part I): a set {m J} of {m N} components with sizes {m s_j} and the
    sparse interconnection matrix {m A}.  The structure is immutable
    once built; construction goes through {!Builder} or {!make}.
    Parallel wires between the same pair of components are merged by
    summing their weights, exactly as {m a_{j_1 j_2}} counts the number
    of interconnections.

    Adjacency is stored as struct-of-arrays CSR: a flat row-offset
    array plus flat neighbor/weight arrays ({!adj_offsets},
    {!adj_targets}, {!adj_weights}).  Rows are neighbor-sorted, in the
    exact order the old boxed [(int * float) array array] layout used,
    so solver float summations are bit-identical.  Construction is a
    counting pass + prefix sum + in-order fill (no per-row sort) and
    can be fanned over a {!Qbpart_pool.Dompool.t} for large instances. *)

type t

(** {1 Construction} *)

module Builder : sig
  type netlist := t
  type t

  val create : unit -> t

  val add_component : t -> ?name:string -> size:float -> unit -> int
  (** Returns the new component's dense id.  [name] defaults to
      ["c<id>"].
      @raise Invalid_argument on duplicate name or [size <= 0]. *)

  val add_wire : t -> int -> int -> ?weight:float -> unit -> unit
  (** [add_wire b j1 j2 ~weight ()] adds [weight] (default [1.])
      interconnections between two existing, distinct components;
      repeated calls accumulate.
      @raise Invalid_argument on unknown ids, self-loop, or
      non-positive weight. *)

  val build : ?pool:Qbpart_pool.Dompool.t -> t -> netlist
end

val make : components:Component.t list -> wires:Wire.t list -> t
(** Direct construction.  Component ids must be exactly [0..n-1] in
    order; wires must reference valid ids.  Parallel wires are merged.
    @raise Invalid_argument otherwise. *)

val make_parallel :
  pool:Qbpart_pool.Dompool.t -> components:Component.t list -> wires:Wire.t list -> t
(** Like {!make}, but fans the CSR adjacency construction over [pool]
    when the instance is large enough to amortize the fan-out.  The
    result is bit-identical to {!make} for any pool size. *)

(** {1 Components} *)

val n : t -> int
(** Number of components, the paper's {m N}. *)

val component : t -> int -> Component.t
val components : t -> Component.t array
(** The backing array is a copy; mutation does not affect [t]. *)

val size : t -> int -> float
(** [size t j] is {m s_j}. *)

val sizes : t -> float array
(** Fresh array of all sizes, indexed by id. *)

val total_size : t -> float
val find_by_name : t -> string -> int option

(** {1 Wires} *)

val wires : t -> Wire.t array
(** All merged wires, each unordered pair at most once, sorted.  The
    backing array is a copy. *)

val iter_wires : t -> (Wire.t -> unit) -> unit
(** Iterate the merged wires in sorted order without copying the
    backing array — use this on the evaluation paths of large
    instances. *)

val fold_wires : t -> init:'a -> f:('a -> Wire.t -> 'a) -> 'a
(** Fold over the merged wires in sorted order without copying. *)

val wire_count : t -> int
(** Number of distinct connected pairs. *)

val total_wire_weight : t -> float
(** Sum of all wire weights = total number of interconnections; the
    paper's "# of wires" column of Table I. *)

(** {2 CSR adjacency}

    The flat arrays below are shared with [t] and must not be mutated.
    Row [j] of the adjacency is
    [adj_targets.(adj_offsets.(j) .. adj_offsets.(j+1) - 1)] with
    matching weights in [adj_weights]; rows are neighbor-sorted.  This
    is the hot path of every solver: iterate with an index loop, no
    closures, no tuple boxing. *)

val adj_offsets : t -> int array
(** Row offsets, length [n + 1]. *)

val adj_targets : t -> int array
(** Neighbor ids, length [2 * wire_count], per-row ascending. *)

val adj_weights : t -> float array
(** Unboxed wire weights aligned with {!adj_targets}. *)

val adj : t -> int -> (int * float) array
(** [adj t j] are [(neighbor, weight)] pairs for every component wired
    to [j], neighbor-sorted.  Compatibility view over the CSR row: the
    returned array is freshly allocated on every call, so prefer the
    flat accessors above in hot loops. *)

val degree : t -> int -> int
(** Number of distinct neighbors. *)

val connection : t -> int -> int -> float
(** [connection t j1 j2] is {m a_{j_1 j_2}} (0 if unwired or equal). *)

val adj_slot : t -> int -> int -> int
(** [adj_slot t j1 j2] is the index of [j2] in [j1]'s CSR row (so
    {!connection} is [(adj_weights t).(k)]), or [-1] if unwired or
    equal.  Hot loops use it instead of {!connection}, whose float
    result is boxed on every call from another module. *)

val connection_matrix : t -> Sparse_matrix.t
(** The full symmetric {m A} as a fresh sparse matrix (both triangles
    populated). *)

(** {1 Misc} *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
(** One-line summary. *)
