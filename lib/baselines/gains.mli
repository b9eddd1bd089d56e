(** Incremental move-gain bookkeeping shared by GFM and GKL.

    Both baselines are built around "the potential gain if that
    component is moved to the corresponding partition" (paper
    section 5).  This module maintains, for every component [j] and
    partition [i], the exact change in the equation-(1) objective of
    moving [j] to [i] — the {m (M-1)} gain entries of GFM, stored as a
    dense, flat {m N×M} delta table: cell [j*M + i] holds the delta of
    moving [j] to [i], and cell [j*M + u(j)] is 0.

    Deltas cover the linear and quadratic terms only; timing is a hard
    move-legality filter in both baselines (violating moves are simply
    forbidden), so it never enters the gains.  All updates are
    incremental: applying a move costs {m O(deg(j)·M)}. *)

module Netlist := Qbpart_netlist.Netlist
module Topology := Qbpart_topology.Topology
module Assignment := Qbpart_partition.Assignment

type t

val create :
  ?p:float array array ->
  ?alpha:float ->
  ?beta:float ->
  Netlist.t ->
  Topology.t ->
  Assignment.t ->
  t
(** Build the table for the given starting assignment.  The assignment
    array is copied; use {!assignment} to read the evolving state. *)

val assignment : t -> Assignment.t
(** The current assignment (shared array — do not mutate). *)

val m : t -> int
(** Number of partitions. *)

val beta : t -> float
(** The quadratic-term scale the table was built with (used by
    {!Buckets} to bound the direct-wire swap correction). *)

val loads : t -> float array
(** Current partition loads (shared array — do not mutate). *)

val sizes : t -> float array
(** Component sizes {m s_j}, the values {!Netlist.size} returns
    (shared array — do not mutate). *)

val deltas : t -> float array
(** The flat delta table: cell [j*M + i] is [move_delta ~j ~target:i]
    (shared array — do not mutate).  Selection kernels index it
    directly: a float returned by {!move_delta} from another module is
    boxed on every call. *)

val move_delta : t -> j:int -> target:int -> float
(** Objective change if [j] moved to [target] (0 when already there). *)

val swap_delta : t -> j1:int -> j2:int -> float
(** Objective change if [j1] and [j2] exchanged partitions, including
    the correction for a direct wire between them (both individual
    deltas assume the other endpoint stays put). *)

val apply_move : t -> j:int -> target:int -> unit
(** Move [j] and update all affected deltas and loads. *)

val apply_swap : t -> j1:int -> j2:int -> unit
(** Exchange two components' partitions. *)

val move_fits : t -> Topology.t -> j:int -> target:int -> bool
(** Capacity check for a single move. *)

val swap_fits : t -> Topology.t -> j1:int -> j2:int -> bool
(** Capacity check for a swap (both directions must fit after the
    exchange). *)
