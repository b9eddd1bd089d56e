(** The qbpartd wire protocol, version 3, encoded as ["v"] in every
    frame.

    One request frame in, one (or, for [Events], several) response
    frames out, each frame a single-line JSON document under
    {!Frame}'s length-prefixed framing.  [doc/PROTOCOL.md] is the
    normative prose specification; this module is its executable twin:
    every request/response form has a typed constructor, and the codec
    is round-trip property-tested in [test/test_server.ml]
    ([decode ∘ encode = id]).

    Decoding is liberal in field order and tolerant of unknown fields
    (forward compatibility), strict about types and about the [op] /
    [type] discriminators. *)

(** {1 Requests} *)

type source =
  | Inline of string  (** document body shipped in the request *)
  | File of string    (** path resolved on the daemon's filesystem *)

(** Admission class.  [Interactive] jobs are dequeued with a higher
    weight and are never shed while a [Batch] job can be; [Batch] is
    the default and the shed-first class under overload, and any
    unknown class token decodes as [Batch]. *)
type priority = Interactive | Batch

val priority_to_string : priority -> string

type submit = {
  netlist : source;
  timing : source option;   (** budget file in {!Qbpart_timing.Constraints_io} format *)
  rows : int;               (** grid rows (≥ 1) *)
  cols : int;               (** grid cols (≥ 1) *)
  slack : float;            (** capacity slack factor *)
  iterations : int;         (** QBP iterations per start *)
  seed : int;               (** base RNG seed *)
  starts : int;             (** portfolio starts (≥ 1) *)
  evolve : bool;            (** run the elite-pool population search *)
  generations : int;        (** evolve generations (≥ 1 even unused); used with [evolve] *)
  pool_size : int;          (** evolve elite-pool capacity (≥ 1) *)
  deadline_s : float option;(** per-job wall-clock budget *)
  label : string option;    (** free-form tag echoed in views *)
  priority : priority;      (** admission class (default [Batch]) *)
}

val default_submit : netlist:source -> submit
(** [rows = 4], [cols = 4], [slack = 1.15], [iterations = 100],
    [seed = 1], [starts = 1], [evolve = false], [generations = 4],
    [pool_size = 8], no timing, no deadline, no label — also the
    defaults of the [qbpart solve], [submit] and [session open] flags,
    which read them from here.  The evolve knobs decode tolerantly
    (older peers simply omit them), so a v3 client and server mix
    freely across this addition. *)

type request =
  | Submit of submit
  | Status of string   (** job id *)
  | Events of { job : string; since : int }
      (** job id; the reply is a stream of events with [seq > since]
          (pass [since = 0] for the full stream) *)
  | Cancel of string   (** job id *)
  | Metrics
  | Heartbeat          (** liveness probe; answered without queueing *)
  | Drain              (** ask the daemon to drain, as SIGTERM would *)
  | Session_open of submit
      (** v3: open an ECO session on the instance the submit spec
          describes; solved synchronously (cold or resumed from the
          checkpoint store), cached as the warm incumbent, and answered
          with an [Eco_result] at [seq = 0] *)
  | Eco_submit of { session : string; seq : int; delta : string; force_cold : bool }
      (** v3: apply a netlist delta ({!Qbpart_netlist.Delta} concrete
          syntax) to a session.  Idempotent by sequence number: [seq]
          must be exactly one past the session's last applied delta;
          re-sending the last [seq] replays the cached answer without
          re-applying; anything else is a [Stale_session] error naming
          the expected value.  [force_cold] skips the warm path (bench
          and failure-drill hook). *)
  | Session_close of string
      (** v3: close a session; its warm incumbent is checkpointed to
          disk and the reply carries the path *)

(** {1 Responses} *)

type job_state = Queued | Running | Done | Failed | Cancelled

val job_state_to_string : job_state -> string

val state_ordinal : job_state -> int
(** Lifecycle position: 0 queued, 1 running, 2 terminal.  [Events]
    sequence numbers are exactly these ordinals, so a reconnecting
    watcher can resume with [since = last seen seq + 1]. *)

type job_view = {
  id : string;
  state : job_state;
  label : string option;
  queued_seconds : float;   (** submit → start (or → now while queued) *)
  wall_seconds : float;     (** solve wall time so far / total *)
  cost : float option;      (** certified equation-(1) objective *)
  certified : bool option;  (** the independent audit's verdict *)
  interrupted : bool;       (** deadline expired or cancelled mid-solve *)
  winner : string option;   (** report winner stage *)
  stages : string list;     (** rendered stage report lines *)
  error : string option;    (** failure rendering when [state = Failed] *)
  checkpoint : string option;  (** resumable checkpoint path, if one was written *)
  assignment : int array option;  (** component index → partition index *)
  resumed_from : string option;
      (** checkpoint path this job warm-resumed from (failover) *)
}

type metrics_view = {
  accepted : int;
  rejected : int;           (** admission refusals (bad spec/overloaded/draining) *)
  completed : int;
  failed : int;
  cancelled : int;
  queue_depth : int;
  running : int;
  draining : bool;
  p50_wall : float;         (** completed-job solve wall time percentiles *)
  p99_wall : float;
  max_wall : float;
  uptime_seconds : float;
  fallbacks : (string * int) list;
      (** per-stage fallback counts across all served jobs, sorted *)
  shed : int;               (** batch jobs evicted to admit interactive ones *)
  eco_warm_hits : int;      (** v3: ECO answers served warm *)
  eco_cold_fallbacks : int; (** v3: ECO answers demoted to a cold solve *)
  cache_evictions : int;
      (** v3: always 0 — each session holds its own incumbent, so none
          is evicted; kept so v3 peers decode unchanged *)
  integrity_failures : int; (** v3: cached incumbents that failed their stamp *)
}

type eco_view = {
  eco_session : string;
  eco_seq : int;            (** last applied delta sequence number (0 = open) *)
  served : string;
      (** how the answer was produced: ["warm"] (patched cached
          incumbent), ["cold"] (full solve), ["resume"] (cold solve
          warm-started from a disk checkpoint), ["replay"] (idempotent
          re-send of the previous answer) *)
  eco_cost : float;         (** certified equation-(1) objective *)
  eco_certified : bool;     (** the independent {!Qbpart_engine.Certify} verdict *)
  eco_wall : float;
  eco_stages : string list; (** degradation-ladder stage reports *)
  eco_assignment : int array option;
  eco_instance : string;    (** hex instance hash after the delta *)
}

type error_code =
  | Bad_request   (** structurally valid JSON that is not a valid request *)
  | Overloaded    (** admission refused: queue at [--max-queue] *)
  | Draining      (** admission refused: daemon is shutting down *)
  | Not_found     (** unknown job id *)
  | Parse_error   (** netlist/timing input rejected by its parser *)
  | Solver_error  (** {!Qbpart_engine.Engine.Error.t}, rendered *)
  | Oversized     (** request frame exceeded the daemon's limit *)
  | Malformed     (** broken framing or unparseable JSON *)
  | Unavailable   (** no live shard can take the job right now (router) *)
  | Internal
  | Invalid_delta (** v3: delta rejected by the validator (with the offending op) *)
  | Unknown_session (** v3: no such session (expired, closed, or never opened) *)
  | Stale_session
      (** v3: delta sequence number is neither the next nor the last
          applied one; the message names the expected [seq] *)

val error_code_to_string : error_code -> string
(** The wire token: ["bad_request"], ["overloaded"], ... *)

type heartbeat_view = {
  shard : string;           (** the daemon's shard id ([--shard-id]) *)
  uptime : float;
  hb_queue_depth : int;
  hb_running : int;
  hb_draining : bool;
}

type response =
  | Submitted of { job : string; queue_depth : int }
  | Job of job_view       (** [Status] and [Cancel] reply *)
  | Metrics_snapshot of metrics_view
  | Event of { job : string; seq : int; state : job_state; detail : string option }
      (** stream element for [Events]; the stream ends with a [Job] *)
  | Heartbeat_ack of heartbeat_view
  | Drain_ack
  | Error of { code : error_code; message : string }
  | Eco_result of eco_view
      (** v3: reply to [Session_open] ([seq = 0]) and [Eco_submit] *)
  | Session_closed of { session : string; checkpoint : string option }

(** {1 Codec} *)

val encode_request : request -> string
val decode_request : string -> (request, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result

val pp_response : Format.formatter -> response -> unit
(** Debug rendering (not the wire form). *)
