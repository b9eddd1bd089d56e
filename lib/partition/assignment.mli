(** Assignments of components to partitions.

    An assignment is the paper's {m 𝒜 : J → I}, represented densely as
    an [int array] of length {m N} with values in {m [0, M)}.  The
    boolean matrix {m [x_{ij}]} and the flattened vector {m y} of the
    QBP formulation are alternative "packagings" of the same data
    (paper section 3.1); conversions are provided for both. *)

type t = int array

val make : n:int -> int -> t
(** [make ~n i] assigns every component to partition [i]. *)

val copy : t -> t
val equal : t -> t -> bool

val check : m:int -> t -> unit
(** @raise Invalid_argument if any value lies outside {m [0, M)}. *)

val loads : Qbpart_netlist.Netlist.t -> m:int -> t -> float array
(** [loads nl ~m a] is the total component size per partition. *)

val partition_members : m:int -> t -> int list array
(** Component ids per partition, ascending. *)

val random :
  Qbpart_netlist.Rng.t -> n:int -> m:int -> t
(** Uniform random assignment (C3 only; ignores capacity/timing). *)

val to_flat : m:int -> t -> bool array
(** The QBP vector {m y} with {m y_r = x_{ij}}, {m r = i + j·M}
    (0-based version of the paper's {m r = i + (j-1)M}). *)

val of_flat : m:int -> n:int -> bool array -> t
(** Inverse of {!to_flat}.
    @raise Invalid_argument if the vector violates C3 (not exactly one
    partition per component) or has wrong length. *)

val flat_index : m:int -> i:int -> j:int -> int
(** {m r = i + j·M}. *)

val of_flat_index : m:int -> int -> int * int
(** [of_flat_index ~m r] is [(i, j)]. *)
