(** Textual netlist format reader.

    One declaration per line, in the line grammar of {!Scan} (comments
    from ['#'] or [';'], tokens separated by spaces and tabs, CRLF
    accepted):
    {v
    # comment
    component <name> <size>
    wire <name1> <name2> [weight]
    v}
    [weight] defaults to 1.  Wires must reference previously declared
    components.  Parallel [wire] lines accumulate, summed in reverse
    file order (see {!Netlist.Builder.add_wire}).  This is the on-disk
    format produced by {!Printer} and consumed by the [qbpart]
    command-line tool.

    The parser is total: no input — including arbitrary binary garbage
    — makes it raise.  Sizes and weights must be finite and positive. *)

type error = Scan.error = { line : int; message : string }
(** [line] is 1-based and always within the parsed input. *)

type file_error = Scan.file_error

val error_to_string : error -> string
val file_error_to_string : file_error -> string

val parse_string : string -> (Netlist.t, error) result

val parse_file : string -> (Netlist.t, file_error) result
(** Reads the whole file, then parses it.  Total: an unopenable or
    unreadable file is [`Io], never a raised [Sys_error]. *)
