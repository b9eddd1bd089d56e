(** The qbpartd daemon core: a Unix-domain-socket listener speaking
    {!Protocol} over {!Frame} framing, in front of a {!Scheduler}.

    Threading model: the listener loop runs on the calling thread and
    wakes a few times a second to poll for drain; each accepted
    connection gets a systhread that reads frames and answers them
    (IO-bound, so threads suffice); solve work happens on the
    scheduler's worker {e domains}.  A client that disconnects mid-job
    only ends its connection thread — the job keeps running and its
    result stays queryable by id from any other connection.

    Shutdown: {!request_drain} (async-signal-safe — one atomic store,
    so it is callable straight from a
    {!Qbpart_engine.Signals.on_terminate} callback) makes the listener
    stop accepting, unlink the socket, and run {!Scheduler.drain};
    {!serve} then returns and the daemon can emit final metrics and
    exit 0.  The [Drain] protocol op does the same thing, so tests can
    exercise the full drain path without signals. *)

type config = {
  socket_path : string;
  tcp : (string * int) option;
      (** also listen on this TCP host/port, same protocol and framing *)
  max_queue : int;       (** queued-job bound; beyond it submits get [overloaded] *)
  workers : int;         (** worker domains *)
  checkpoint_dir : string;  (** interrupted jobs leave [qbpartd-<id>.ckpt] here *)
  replicate_dir : string option;
      (** shared replicated checkpoint store (see {!Scheduler.create}) *)
  max_frame : int;       (** request-frame size limit in bytes *)
  shard_id : string;     (** identity reported in [Heartbeat_ack] *)
  conn_timeout : float;
      (** per-connection read/write deadline in seconds ([SO_RCVTIMEO] /
          [SO_SNDTIMEO]); [0] disables *)
  fault : Netfault.t option;
      (** inject seeded faults into every response frame (chaos testing) *)
  eco_fault : Session.Fault.t option;
      (** deterministic faults on the ECO serving path (chaos testing) *)
}

val default_config : socket_path:string -> config
(** [max_queue = 16], [workers = 2], [checkpoint_dir = "."], no TCP, no replication,
    [max_frame = Frame.default_max], [shard_id = "qbpartd"],
    [conn_timeout = 60.0], no faults. *)

type t

val create : config -> (t, string) result
(** Bind and listen (Unix socket always; TCP too when configured).  A
    stale socket file left by a dead daemon is detected (connect
    refused) and replaced; a live one is an error.  Also ignores
    SIGPIPE process-wide — a disconnecting client must never kill the
    daemon. *)

val serve : t -> unit
(** Accept loop; returns after a drain has fully completed (workers
    joined, checkpoints written, socket unlinked). *)

val request_drain : t -> unit
(** Idempotent, non-blocking, async-signal-safe. *)

val snapshot : t -> Protocol.metrics_view

val scheduler : t -> Scheduler.t
(** The underlying scheduler (tests and in-process embedding). *)
