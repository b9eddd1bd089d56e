(** Textual format for timing-budget files (the {m D_C} matrix).

    One declaration per line, in the line grammar of
    {!Qbpart_netlist.Scan} (comments from ['#'] or [';'], tokens
    separated by spaces and tabs, CRLF accepted), referencing
    components by name so the file pairs with a netlist in
    {!Qbpart_netlist.Parser}'s format:
    {v
    # comment
    budget <from> <to> <max-delay>      # directed
    budget_sym <a> <b> <max-delay>      # both directions
    v}
    Duplicate lines keep the tighter budget, mirroring
    {!Constraints.Builder.add}.  The reader is total: every input yields
    budgets or an error at a line inside it. *)

type error = Qbpart_netlist.Scan.error = { line : int; message : string }
type file_error = Qbpart_netlist.Scan.file_error

val error_to_string : error -> string
val file_error_to_string : file_error -> string

val parse_string : Qbpart_netlist.Netlist.t -> string -> (Constraints.t, error) result
(** Budgets are resolved against the given netlist's component names. *)

val parse_file : Qbpart_netlist.Netlist.t -> string -> (Constraints.t, file_error) result
(** Reads the whole file, then parses it.  Total: an unopenable or
    unreadable file is [`Io], never a raised [Sys_error]. *)

val to_string : Qbpart_netlist.Netlist.t -> Constraints.t -> string
(** Inverse of {!parse_string}: one [budget] line per stored directed
    entry, in iteration order. *)

val to_file : Qbpart_netlist.Netlist.t -> Constraints.t -> string -> unit
