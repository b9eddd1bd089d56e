(** The synthetic workload frontier: 10k–100k-component circuits.

    Table I tops out at 607 components; this module extrapolates the
    paper's sparsity model to VLSI scale.  Instances follow the same
    planted-cluster generator and constraint-planting recipe as
    {!Circuits}, but the planting reference comes from the hidden
    cluster labels (round-robin over the grid with capacity spill)
    instead of a QBP pre-solve, so a 100k-component instance builds in
    seconds.  All construction is seeded and deterministic: the same
    [params] always produce the identical instance. *)

type params = {
  name : string;
  n : int;                 (** component count *)
  avg_degree : float;      (** interconnections per component (2·wires/n) *)
  timing_density : float;  (** directed timing budgets per component *)
  locality : float;        (** intra-cluster wire probability, in [0,1] *)
  clusters : int;          (** hidden clusters; 0 = auto (n/500, min 20) *)
  timing_slack : float * float;
                           (** planted budget slack (lo, hi), 60%/40% mix *)
  seed : int;
  rows : int;
  cols : int;
  capacity_slack : float;  (** uniform capacity = total/m · slack *)
}

val default : name:string -> n:int -> seed:int -> params
(** Degree 12, timing density 2, locality 0.8, auto clusters, 4×4
    grid, slack 1.08 — the Table-I regime, scaled. *)

val frontier : params list
(** [synth10k] (degree 16, density 3), [synth30k] (12, 2),
    [synth100k] (10, 1.5). *)

val names : string list

val find : string -> params option
(** Look up a frontier instance by name. *)

val wires_of : params -> int
val timing_of : params -> int

val build : ?pool:Qbpart_pool.Dompool.t -> params -> Circuits.instance
(** Deterministic for given [params]; [pool] parallelizes the CSR
    adjacency construction without changing any value.
    @raise Invalid_argument on nonsensical parameters. *)
