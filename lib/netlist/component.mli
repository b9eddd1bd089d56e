(** Circuit components.

    A component is a functional block of the system being partitioned
    (paper section 2.1, item I.1-2).  Each component [j] carries a
    silicon-area demand [size] (the paper's {m s_j}); in the industrial
    examples sizes range over about two orders of magnitude within one
    circuit. *)

type t = private {
  id : int;      (** dense index in [0, n); assigned by the netlist *)
  name : string; (** human-readable label, unique within a netlist *)
  size : float;  (** silicon-area demand {m s_j}; strictly positive *)
}

val make : id:int -> name:string -> size:float -> t
(** @raise Invalid_argument if [size <= 0] or [id < 0]. *)

val id : t -> int
val name : t -> string
val size : t -> float

val equal : t -> t -> bool
