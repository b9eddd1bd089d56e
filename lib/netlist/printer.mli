(** Textual netlist format writer; inverse of {!Parser}. *)

val to_string : Netlist.t -> string
val to_file : string -> Netlist.t -> unit
(** @raise Sys_error if the file cannot be written. *)
