(** The line grammar every qbpart text format shares, and one
    allocation-free cursor over it.

    Netlists ({!Parser}), timing budgets ([Constraints_io]) and deltas
    ({!Delta}) are all read the same way:
    - lines end at ['\n'] (a final line without one counts too);
    - each line is cut at its first ['#'] or [';']: the rest is a
      comment;
    - a token is a maximal run of bytes other than space and tab, with
      one trailing ['\r'] dropped, so CRLF files read like LF files; a
      run that was only that ['\r'] is no token.

    The cursor records each token of the current line as a span of the
    source and copies nothing: a reader compares keywords and reads
    numbers in place, and makes a string only for a name or an error
    message.  Lines are numbered from 1 and lie inside the input.
    Readers read a whole file first ({!parse_file}), then scan it. *)

type t

val of_string : string -> t

val next : t -> bool
(** Advance to the next line and cut it into tokens; [false] once the
    input is exhausted. *)

val line : t -> int
(** 1-based number of the current line. *)

val line_text : t -> string
(** The current line as it appears in the input, comment and any
    ['\r'] included. *)

val count : t -> int
(** Number of tokens on the current line; [0] for a blank or
    comment-only line. *)

val is : t -> int -> string -> bool
(** [is t k word]: token [k] is exactly [word].  Every token accessor
    requires [0 <= k < count t].
    @raise Invalid_argument otherwise. *)

val token : t -> int -> string
(** A copy of token [k]. *)

val float : t -> int -> float option
(** Token [k] read exactly as [float_of_string_opt] reads it.  A plain
    decimal of at most 15 digits scaled by at most [10^22] is
    converted in place (one correctly rounded operation on two exact
    doubles, so the same float); anything else goes through
    [float_of_string_opt] on a copy. *)

(** {1 Errors}

    The positioned error the netlist and budget readers report. *)

type error = { line : int; message : string }
(** [line] is 1-based and lies inside the input. *)

type file_error = [ `Parse of error | `Io of string ]
(** What can go wrong reading a file: a syntax error at a line, or an
    I/O failure (unreadable, nonexistent, a directory, ...). *)

exception Fail of error

val fail : t -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Fail} at the current line. *)

val error_to_string : error -> string
(** ["line <n>: <message>"]. *)

val file_error_to_string : file_error -> string

val parse_file : (string -> ('a, error) result) -> string -> ('a, file_error) result
(** [parse_file parse path] reads the whole file, then parses it.
    Total: an unopenable or unreadable file is [`Io], never a raised
    [Sys_error]. *)
