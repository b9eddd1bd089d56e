(** Hardened client for the qbpartd socket protocol.

    One {!t} is one connection (Unix socket or TCP); requests on a
    connection are answered in order.  All failures are values: a
    connection error, a timeout, a framing error, or an undecodable
    response each render to a message — the CLI turns them into exit
    code 123.

    Robustness contract:
    - {!connect} cannot hang: a non-blocking connect is raced against
      [connect_timeout] and a dead peer yields
      ["timed out connecting to ..."];
    - reads cannot hang: each response frame is read incrementally
      against [read_timeout], so a server that accepts and then goes
      silent (or stalls mid-frame) yields
      ["timed out after ... waiting for a response from ..."];
    - all socket I/O retries [EINTR], and SIGPIPE is ignored
      process-wide on first use — a dying server surfaces as [EPIPE],
      an error value, never a signal;
    - {!request} adds seeded, jittered exponential-backoff retries over
      fresh connections.  Retrying a [Submit] is safe against a fleet
      with a replicated checkpoint store: resubmission is idempotent
      {e by instance hash} — the replacement job auto-resumes from the
      store and certifies the identical answer. *)

type addr =
  | Unix_socket of string  (** filesystem path *)
  | Tcp of string * int    (** host, port *)

val addr_of_string : string -> (addr, string) result
(** [tcp:HOST:PORT] is TCP; anything else is a Unix socket path. *)

type t

val default_connect_timeout : float
(** 10 seconds. *)

val default_read_timeout : float
(** 60 seconds — finite by default: a hung server must not hang the
    client. *)

val connect : ?connect_timeout:float -> ?read_timeout:float -> addr -> (t, string) result
(** [Error] when the peer is absent, refuses, or does not accept
    within [connect_timeout].  Pass a timeout of [0.] to disable the
    read deadline (used by watch streams that may idle legitimately). *)

val close : t -> unit

val call : t -> Protocol.request -> (Protocol.response, string) result
(** Send one request and read one response frame.  For [Events], this
    returns the {e first} frame; keep reading with {!read_response}
    until a [Job] (terminal) frame arrives. *)

val read_response : t -> (Protocol.response, string) result
(** Read the next response frame from an in-flight stream, against the
    connection's read deadline. *)

val wait :
  ?poll_interval:float ->
  ?timeout:float ->
  t ->
  string ->
  (Protocol.job_view, string) result
(** Poll [Status job] until the job reaches a terminal state
    ([Done]/[Failed]/[Cancelled]); [poll_interval] defaults to 0.05s,
    [timeout] (default none) bounds the wait. *)

(** {1 Retries} *)

type backoff = {
  attempts : int;     (** total tries, including the first *)
  base_delay : float; (** seconds before the first retry *)
  max_delay : float;  (** cap on any single delay *)
  seed : int;         (** jitter RNG seed — fixed seed, fixed schedule *)
}

val default_backoff : backoff
(** 5 attempts, 0.1s base, 2s cap, seed 1. *)

val request :
  ?backoff:backoff ->
  ?connect_timeout:float ->
  ?read_timeout:float ->
  addr ->
  Protocol.request ->
  (Protocol.response, string) result
(** One-shot request over a fresh connection with retries: transport
    errors (connect/read failures, timeouts, corrupt frames) and the
    retryable protocol errors ([overloaded], [unavailable],
    [draining]) back off and try again; every other response is
    returned as-is.  The final error is suffixed with the attempt
    count. *)
