(** ECO delta sessions: warm-incumbent serving for protocol v3.

    A session pins one problem instance server-side so a client can
    stream engineering-change-order deltas ({!Qbpart_netlist.Delta})
    against it and get each edited instance re-solved {e warm} —
    carrying the previous incumbent across the edit, repairing it to
    feasibility and polishing it on the edited instance, whose rows
    the passes price afresh — instead of solving from scratch.  Every
    answer, warm or cold, is re-audited by the independent
    {!Qbpart_core.Certify} check before it is served.

    {2 The degradation ladder}

    Each delta runs validate → patch → repair → polish → certify
    (patch maps the incumbent onto the renumbered components and puts
    each added one on the partition with the most spare capacity); the
    first stage that fails demotes the request to a full cold
    {!Qbpart_engine.Engine.solve} of the edited instance (which has
    its own internal ladder).  Per-stage outcomes are reported in
    {!Protocol.eco_view.eco_stages} so a client can see {e why} an
    answer went cold.  An invalid delta is the client's fault and is
    never demoted: it returns [Invalid_delta] and leaves the session
    unchanged.

    {2 The warm incumbent}

    Each session holds its own incumbent in memory until it is closed;
    no other session can read or replace it.  Every reuse re-checks an
    integrity stamp over its assignment and cost; a mismatch counts a
    {!Metrics.integrity_failure}, drops the incumbent and demotes to a
    cold solve, whose answer the session then holds.  A session left
    without one (its cold solve failed too) reads ["warm: miss"] and
    goes cold.

    {2 Idempotency}

    Deltas carry a client sequence number.  The expected value is
    exactly one past the last applied delta; re-sending the last
    sequence number replays the cached answer (served tag ["replay"])
    without re-applying anything, and any other value is a
    [Stale_session] error naming the expected sequence. *)

(** Deterministic fault injection for the ECO serving path, in the
    style of {!Netfault}: each point fires on the k-th ECO submit
    handled by the manager (counting from 1), exactly once. *)
module Fault : sig
  type t = {
    corrupt : int option;
        (** mutate the session's incumbent without restamping — the
            integrity re-check must catch it *)
    stale : int option;
        (** bump the session's applied sequence so the client's next
            delta is rejected as [Stale_session] *)
  }

  val none : t

  val of_spec : string -> (t, string) result
  (** Parse ["corrupt=1,stale=5"] (any subset, any order). *)

  val to_spec : t -> string
end

type config = {
  checkpoint_dir : string;
      (** receives close/drain checkpoints and is probed for resumable
          ones on [session_open] and on a cold rung *)
  fault : Fault.t option;
}

type t

val create : config -> metrics:Metrics.t -> t

val open_session :
  t -> Protocol.submit -> (Protocol.eco_view, Protocol.error_code * string) result
(** Parse and solve the instance (resuming from a matching store
    checkpoint when one validates — served tag ["resume"] — and cold
    otherwise), hold the incumbent in the new session and return the
    answer with a fresh session id at sequence 0. *)

val eco :
  t ->
  session:string ->
  seq:int ->
  delta:string ->
  force_cold:bool ->
  (Protocol.eco_view, Protocol.error_code * string) result
(** Apply one delta through the ladder.  [force_cold] skips the warm
    path (and any disk resume) entirely — the baseline the warm path
    is benchmarked against. *)

val close_session :
  t -> string -> (Protocol.response, Protocol.error_code * string) result
(** Remove the session and checkpoint its incumbent to the store
    directory ([Session_closed.checkpoint] is the path when the write
    succeeded). *)

val drain : t -> unit
(** Checkpoint every live session's incumbent to the store directory
    and forget the sessions — the counterpart of {!Scheduler.drain}
    for serving state. *)
