(** Fleet front door: consistent-hash job routing with heartbeat
    health checks and checkpoint-store failover.

    The router speaks the same wire protocol as a single daemon —
    clients cannot tell the difference — and forwards each [Submit] to
    one of N worker shards chosen by walking a vnode consistent-hash
    ring keyed on the job's {!Qbpart_engine.Checkpoint.instance_hash}.
    Identical instances therefore always land on the same live shard
    (dedup and cache locality), and shard membership changes only move
    the affected arc of keys.

    Failover: a background loop heartbeats every shard each
    [hb_interval]; [fail_threshold] consecutive misses declare the
    shard dead, and its in-flight jobs are resubmitted to their ring
    successors.  When the fleet shares a replicated checkpoint store
    ([qbpartd --replicate DIR]), the replacement shard resumes each
    job from the dead shard's last replicated checkpoint, and the
    engine's resume contract makes the certified answer bit-identical
    to an uninterrupted single-node run.  Dead shards that heartbeat
    again rejoin the ring automatically.

    Full shards spill over: an [overloaded] / [draining] /
    [unavailable] refusal from the chosen shard tries the next live
    ring shard before giving up.  Only when no live shard accepts does
    the client see [unavailable] — which {!Client.request} retries
    with backoff. *)

type config = {
  socket_path : string;            (** the router's own Unix socket *)
  tcp : (string * int) option;     (** optional TCP listener *)
  shards : (string * Client.addr) list;  (** (name, address) per worker shard *)
  max_frame : int;
  router_id : string;              (** reported in heartbeat acks *)
  conn_timeout : float;            (** per-connection read/write deadline *)
  fault : Netfault.t option;       (** response-path fault injection *)
  hb_interval : float;             (** seconds between health sweeps *)
  fail_threshold : int;            (** consecutive misses before a shard is dead *)
  vnodes : int;                    (** ring points per shard *)
  forward_connect_timeout : float;
  forward_read_timeout : float;
}

val default_config : socket_path:string -> shards:(string * Client.addr) list -> config
(** TCP off, 64 vnodes, 0.5s heartbeats, threshold 2, 60s connection
    timeout, 2s/10s forward timeouts. *)

type t

val create : config -> (t, string) result
val serve : t -> unit
val request_drain : t -> unit
(** Drain forwards [Drain] to every shard first, so one signal winds
    down the whole fleet. *)
