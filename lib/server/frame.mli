(** Length-prefixed NDJSON framing.

    A frame on the wire is

    {v <length>\n<payload>\n v}

    where [<length>] is the payload's byte count in ASCII decimal and
    [<payload>] is one single-line JSON document ({!Json.to_string}
    never emits a raw newline).  The explicit length makes the stream
    self-delimiting without trusting the payload's encoding; the
    trailing newline keeps a capture of the stream readable and is
    {e verified} on read, catching desynchronized or truncated peers
    immediately rather than one frame later.

    Limits: a reader enforces [max] (default {!default_max}) on the
    declared length {e before} allocating, so a hostile or buggy peer
    cannot balloon the daemon; the header itself is capped at
    {!header_limit} digits.  Errors are values — reading never
    raises. *)

type error =
  | Eof  (** clean end of stream at a frame boundary *)
  | Truncated of { expected : int; got : int }
      (** stream ended inside a frame (header, payload, or missing
          terminator) *)
  | Oversized of { declared : int; max : int }
      (** declared length exceeds the reader's limit; the connection
          must be dropped (stream position is unrecoverable) *)
  | Malformed of string
      (** unparseable header or a payload not followed by ['\n'] *)

val default_max : int
(** 8 MiB — comfortably above any inline netlist the suite carries. *)

val header_limit : int
(** Maximum header digits accepted (19: any [int63] length). *)

val encode : string -> string
(** [encode payload] is the wire form
    [string_of_int (length payload) ^ "\n" ^ payload ^ "\n"]. *)

val decode : ?max:int -> string -> pos:int -> (string * int, error) result
(** Pure single-frame decode from [s] at byte [pos]: the payload and
    the offset one past the frame's trailing newline.  Used by the
    codec tests; {!read} is the IO twin with identical acceptance. *)

val read : ?max:int -> in_channel -> (string, error) result
(** Read one frame.  [Error Eof] only when the stream ends cleanly
    {e before} the first header byte; an interrupted frame is
    [Truncated]. *)

val write : ?fault:Netfault.t -> out_channel -> string -> unit
(** Write one frame and flush.  IO exceptions ([Sys_error], EPIPE as
    [Unix.Unix_error]) propagate — the caller owns the connection.
    With [?fault], the injector decides the frame's fate first: it may
    be dropped, delayed, truncated (a strict prefix is sent — the peer
    sees [Truncated]/[Malformed] and must hang up), or have one header
    or payload byte flipped. *)

val error_to_string : error -> string
