(** The elite pool: a capacity-bounded set of diverse feasible
    assignments, the population the cooperating search breeds from.

    Admission is by dominance on (objective, diversity) and is a pure
    function of the admission {e sequence}: the driver feeds completed
    starts in ascending start-index order, so pool contents never
    depend on which domain finished first (property-tested under
    permuted completion order).

    Rules, applied in order against the candidate's nearest entry
    under {!Diversity.aligned_distance}:

    + distance 0 — a relabeling of a present elite — is rejected;
    + distance below [min_distance] replaces that nearest entry iff
      the candidate's objective is strictly better (the pool refines a
      region it already covers rather than crowding it);
    + otherwise the candidate joins while capacity remains, and once
      full it evicts the worst entry iff strictly better than it.

    The best entry can only ever be displaced by a strictly better
    candidate, so the pool champion is monotone in admissions. *)

module Assignment := Qbpart_partition.Assignment

type entry = {
  assignment : Assignment.t;  (** owned copy; feasible by contract *)
  cost : float;               (** plain equation-(1) objective *)
  origin : int;               (** global start index that produced it,
                                  or an operator tag from the driver *)
  birth : int;                (** admission sequence number; ties in
                                  cost break toward the earlier birth *)
}

type verdict =
  | Admitted
  | Replaced of entry   (** the displaced entry (nearest-within-radius
                            or the evicted worst) *)
  | Rejected            (** duplicate, too close without improving, or
                            worse than a full pool's worst *)

type t

val create : capacity:int -> min_distance:int -> m:int -> t
(** [capacity >= 1] slots; [min_distance >= 0] is the crowding radius
    in aligned-Hamming moves; [m] the partition count (label
    alignment).  @raise Invalid_argument on bad sizes. *)

val admit : t -> Assignment.t -> cost:float -> origin:int -> verdict
(** Offer a {e feasible} assignment (the driver certifies before
    offering; the pool trusts and copies it). *)

val entries : t -> entry list
(** Ascending (cost, birth): head is the champion. *)

val best : t -> entry option
val size : t -> int
val capacity : t -> int

val min_pairwise_distance : t -> int
(** Smallest aligned distance between any two entries; [max_int] with
    fewer than two.  A reported diversity floor for benches/tests. *)
