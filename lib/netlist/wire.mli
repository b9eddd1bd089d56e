(** Wires (interconnections) between components.

    A wire aggregates the paper's interconnection matrix entries: the
    sparse {m N×N} matrix {m A} has {m a_{j_1 j_2}} = number of
    interconnections between components {m j_1} and {m j_2}.  We store
    each connected unordered pair once, with a strictly positive
    [weight] equal to the number (or total width) of wires between the
    two endpoints.  Self-loops are rejected: a wire internal to a
    component has no inter-partition cost under any assignment. *)

type t = private {
  u : int;        (** smaller endpoint id *)
  v : int;        (** larger endpoint id; [u < v] *)
  weight : float; (** {m a_{uv}}; strictly positive *)
}

val make : int -> int -> weight:float -> t
(** [make j1 j2 ~weight] normalizes endpoint order.
    @raise Invalid_argument on self-loop, negative id or
    non-positive weight. *)

val u : t -> int
val v : t -> int
val weight : t -> float

val other : t -> int -> int
(** [other w j] is the endpoint of [w] that is not [j].
    @raise Invalid_argument if [j] is not an endpoint. *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Lexicographic on [(u, v, weight)]. *)
