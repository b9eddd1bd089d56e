(** Job lifecycle and dispatch onto the solver stack.

    The scheduler owns a bounded {!Queue} of parsed, validated jobs
    and a fixed pool of OCaml 5 worker domains, each looping
    pop → {!Qbpart_engine.Engine.solve} → record.  It {e reuses} the
    engine's whole contract rather than duplicating any of it: the
    degradation ladder and portfolio supervision run unchanged inside
    the worker, per-job deadlines are ordinary {!Qbpart_engine.Deadline}
    tokens (so cancellation is the same cooperative mechanism the CLI
    uses), and every served answer carries the engine's independent
    {!Qbpart_core.Certify} audit.

    Lifecycle: [Queued → Running → Done | Failed | Cancelled].
    Cancelling a queued job is immediate; cancelling a running job
    cancels its deadline, and the engine's anytime contract turns that
    into a prompt best-so-far return — the job ends [Cancelled] but
    still carries its certified incumbent and, when one was captured,
    a resumable checkpoint.  At every terminal transition the job
    drops its submission (inline netlist and timing text), its parsed
    instance and its checkpoints, after persisting any checkpoint it
    must leave behind; it keeps only what {!view} reports, so a
    long-running daemon's job table grows by a view per job, not by an
    instance.

    {!drain} is the graceful-shutdown path: close admission, cancel
    every queued job, cancel every in-flight deadline, join the
    workers, and persist a checkpoint for each interrupted job under
    the checkpoint directory — the daemon's SIGTERM handler is one
    call to this function. *)

module Netlist := Qbpart_netlist.Netlist
module Topology := Qbpart_topology.Topology
module Problem := Qbpart_core.Problem
module Deadline := Qbpart_engine.Deadline
module Engine := Qbpart_engine.Engine
module Checkpoint := Qbpart_engine.Checkpoint

type t

val create :
  ?workers:int ->
  ?checkpoint_dir:string ->
  ?replicate_dir:string ->
  queue_capacity:int ->
  metrics:Metrics.t ->
  unit ->
  t
(** Spawn the worker pool.  [workers] defaults to 2; [checkpoint_dir]
    (default ["."]) receives [qbpartd-<job>.ckpt] files for
    interrupted jobs.  [replicate_dir] enables the shared replicated
    checkpoint store: every engine checkpoint is mirrored to
    [replicate_dir/qbpartd-<instance hash>.ckpt], and {!submit}
    auto-resumes from a matching store entry ({!store_resume}) — the
    fleet's failover and idempotent-retry mechanism.  The queue
    dequeues interactive and batch jobs at {!Queue.default_weight}.
    @raise Invalid_argument if [workers < 1] or [queue_capacity < 0]. *)

(** {1 The solve spec}

    {!Protocol.submit} is the one description of a solve — the
    instance (netlist, timing budgets, grid) and the search budget —
    for the CLI's [solve], [submit] and [session open], for daemon
    jobs and for ECO sessions.  This section is the one place that
    says what a spec means. *)

val check_spec : Protocol.submit -> (unit, Protocol.error_code * string) result
(** The admission rule, with no I/O: [rows], [cols], [starts],
    [generations] and [pool_size] at least 1, [iterations] at least
    0, [slack] positive and finite, [deadline_s] (when given)
    non-negative.  No field's rule depends on another field: a
    [generations] of 0 is refused without [evolve] too.  Errors are
    [Bad_request] naming the field. *)

val topology_of_spec : Protocol.submit -> Netlist.t -> Topology.t
(** The grid a spec names: [rows × cols] partitions of uniform
    capacity [total size / M × slack].  The only grid construction
    behind the CLI, jobs and ECO sessions, so a checkpoint written by
    one resumes under another with the same instance hash.
    @raise Invalid_argument on a spec {!check_spec} refuses, or a
    netlist of total size 0. *)

val deadline_of_spec : Protocol.submit -> Deadline.t
(** A fresh deadline of [deadline_s] seconds; unlimited when absent. *)

val engine_config : ?domains:int -> Protocol.submit -> Engine.Config.t
(** The engine configuration a spec asks for — the one mapping from a
    spec's solver fields to {!Engine.Config.t}.  [evolve = false] runs
    one generation.  The process-local settings [jobs], [inner_jobs]
    and [retries] keep their defaults; the CLI overrides them from
    its own flags.  [?domains] makes it the configuration of a served
    solve that may use that many domains: [inner_jobs] becomes
    {!Qbpart_evolve.Evolve.auto_inner_jobs}'s share of them among the
    starts that run at once.  A worker's job gets
    [max 1 ((cores - 1) / workers)] domains and an ECO session's cold
    solve 1, since the daemon's main domain runs the connection
    threads and the session solves (DESIGN.md D28). *)

val store_resume :
  dir:string -> Protocol.submit -> Problem.t -> hash:int64 -> (Checkpoint.t * string) option
(** The store checkpoint [dir/qbpartd-<hash>.ckpt] with its path,
    when a solve of this spec may resume from it: it validates
    against the instance, whose {!Checkpoint.instance_hash} [hash] must
    be (it is not recomputed), and was written under the same base seed by
    a run whose recorded starts are all below the spec's [starts].
    Anything else — missing, corrupt, foreign — is [None]. *)

val render_stage : Engine.Report.stage -> string
(** One stage-report line as job and ECO views carry it:
    ["name: outcome (wall s, cost c)"]. *)

val problem_of_spec : Protocol.submit -> (Problem.t, Protocol.error_code * string) result
(** {!check_spec}, then parse the netlist (inline or by daemon-side
    path) and optional timing budgets and build the instance on
    {!topology_of_spec}.  Errors map to [Bad_request] /
    [Parse_error]. *)

(** {1 Jobs} *)

val submit : t -> Protocol.submit -> (string * int, Protocol.error_code * string) result
(** Admit a job: parse via {!problem_of_spec} (a refusal counts in
    [rejected]), then push under the spec's priority class.  [Ok (job id, queue depth)]; [Error
    (Overloaded, _)] beyond the queue bound (after shedding, for
    interactive arrivals), [Error (Draining, _)] once {!drain}
    started.  With a replicated store configured, a valid store
    checkpoint for the same instance/seed/starts is attached and the
    solve resumes from it ([job_view.resumed_from]). *)

val view : t -> string -> Protocol.job_view option

val await : t -> string -> after:int -> Protocol.job_view option
(** [await t id ~after] blocks until job [id]'s state ordinal
    ({!Protocol.state_ordinal}) exceeds [after], or the job is
    terminal, and returns its view then; [None] for an unknown job.
    The scheduler broadcasts at the [Running] transition and at every
    terminal one (done, failed, cancelled, shed, drained), so a
    watcher wakes as soon as the state changes, with no polling. *)

val cancel : t -> string -> Protocol.job_view option

val queue_depth : t -> int
val running : t -> int
val draining : t -> bool
val snapshot : t -> Protocol.metrics_view

val drain : t -> unit
(** Idempotent; blocks until every worker has exited.  Queued jobs
    become [Cancelled]; running jobs finish promptly under their
    cancelled deadlines and keep their certified best-so-far results;
    interrupted jobs get their last checkpoint persisted
    ([job_view.checkpoint]). *)
