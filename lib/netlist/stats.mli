(** Circuit statistics in the shape of the paper's Table I. *)

type t = {
  name : string;
  components : int;          (** {m N} *)
  wire_pairs : int;          (** distinct connected pairs *)
  interconnections : float;  (** total wire weight, Table I "# of wires" *)
  total_size : float;
  size_min : float;
  size_max : float;
  degree_max : int;
  degree_mean : float;
}

val of_netlist : ?name:string -> Netlist.t -> t
(** Compute statistics.  [name] defaults to [""]. *)

val size_span_orders : t -> float
(** [log10 (size_max / size_min)] — the paper notes sizes "ranging
    about 2 orders of magnitude in the same circuit". *)

val pp : Format.formatter -> t -> unit
