(** Serving counters and latency percentiles.

    One instance per daemon, shared by the listener thread, the
    connection threads and every worker domain; all updates take the
    internal mutex, so a snapshot is consistent.  Wall-time samples
    feed p50/p99/max over a bounded ring (the {!ring_capacity} most
    recent completions), computed at snapshot time — the hot path only
    appends. *)

type t

val ring_capacity : int
(** Retained wall-time samples (4096). *)

val create : unit -> t

val accepted : t -> unit
val rejected : t -> unit
val failed : t -> unit
val cancelled : t -> unit

val shed : t -> unit
(** Count a batch job evicted to admit an interactive one. *)

val completed : t -> wall:float -> unit
(** Count a completion and record its solve wall time. *)

val fallback : t -> string -> unit
(** Count one fallback through the named stage (from
    {!Qbpart_engine.Engine.Report.t.fallbacks}). *)

(** {1 ECO session counters} *)

val eco_warm_hit : t -> unit
(** Count an ECO answer served warm from the session's incumbent. *)

val eco_cold_fallback : t -> unit
(** Count an ECO answer that fell through the degradation ladder to a
    cold solve (cache miss, corrupt entry, or failed warm stage). *)

val integrity_failure : t -> unit
(** Count a cached incumbent whose integrity stamp failed re-check;
    the entry is dropped and the request demoted to a cold solve. *)

val snapshot : t -> queue_depth:int -> running:int -> draining:bool -> Protocol.metrics_view
(** Consistent view; percentiles are computed here, over the ring. *)
