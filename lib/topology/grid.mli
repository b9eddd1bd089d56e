(** Grid-shaped partition topologies.

    The paper's experiments use 16 partitions; its worked example
    (Figure 1) uses a 2×2 array where "B and D are just Manhattan
    distance matrices derived from the locations of the partitions
    assuming adjacent partitions are distance 1 apart".  This module
    builds such grids, with a choice of wiring-cost metric so the
    quadratic term can model total wire crossings, Manhattan wire
    length, or quadratic wire length (section 2.1). *)

type metric =
  | Manhattan  (** {m b = |Δrow| + |Δcol|}: total Manhattan wire length *)
  | Squared    (** {m b = (Manhattan)²}: quadratic wire length *)
  | Crossings  (** {m b = 1} iff different partitions: wire crossings *)

val b_of_metric : metric -> rows:int -> cols:int -> float array array
(** The {m M×M} cost matrix for a row-major grid ({m M = rows·cols}). *)

val make :
  ?metric:metric ->
  ?delay_scale:float ->
  ?names:string array ->
  rows:int ->
  cols:int ->
  capacity:float ->
  unit ->
  Topology.t
(** Uniform-capacity grid.  Partition {m i} sits at row [i / cols],
    column [i mod cols]; names default to ["r<r>c<c>"].  The delay
    matrix is Manhattan distance times [delay_scale] (default 1.0)
    regardless of [metric] — the routing delay between slots is
    distance-driven even when the cost objective is not.
    @raise Invalid_argument if [rows], [cols] or [capacity] is not
    positive. *)

val make_capacities :
  ?metric:metric ->
  ?delay_scale:float ->
  rows:int ->
  cols:int ->
  capacities:float array ->
  unit ->
  Topology.t
(** Per-slot capacities (length must be [rows * cols]). *)

val slot : cols:int -> int -> int * int
(** [slot ~cols i] is [(row, col)] of slot [i]. *)

val index : cols:int -> row:int -> col:int -> int
(** Inverse of {!slot}. *)
