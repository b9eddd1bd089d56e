(** Static timing analysis over a component-level DAG.

    The paper states that timing constraints "are driven by system
    cycle time and can be derived from the delay equations and
    intrinsic delay in combinational circuit components" (section 1).
    This module performs that derivation: given a directed acyclic
    signal-flow graph whose nodes are components with intrinsic delays,
    it computes longest paths and turns the slack of each edge into a
    maximum allowed routing delay — a {!Constraints.t} usable as
    {m D_C}.

    Budgeting scheme: for edge {m u→v}, let {m L(e)} be the delay of
    the longest register-to-register path through {m e} (intrinsic
    delays only) and {m k(e)} the number of edges on that path.  The
    path slack {m T_{cycle} − L(e)} is divided equally among the
    path's edges: {m budget(e) = (T_{cycle} − L(e)) / k(e)}.  This is
    the classic zero-slack allocation restricted to a single pass; it
    guarantees that if every edge meets its budget, every path meets
    the cycle time. *)

type t

val make : intrinsic:float array -> edges:(int * int) list -> t
(** [make ~intrinsic ~edges] builds the timing graph; [intrinsic.(j)]
    is component [j]'s combinational delay (>= 0).  Duplicate edges
    are merged.
    @raise Invalid_argument on self-loops, out-of-range endpoints,
    negative delays, or if the graph has a cycle. *)

val of_netlist :
  Qbpart_netlist.Netlist.t -> intrinsic:float array -> order:int array -> t
(** Orient every wire of the netlist along [order] (a permutation of
    component ids): the endpoint appearing earlier drives the later
    one.  This turns an undirected netlist into a plausible
    combinational signal flow for experimentation. *)

val edge_count : t -> int

val arrival : t -> float array
(** [arrival.(j)]: delay of the longest intrinsic-delay path ending at
    (and including) [j]. *)

val critical_path : t -> float
(** Minimum feasible cycle time with ideal (zero-delay) routing. *)

val budgets : t -> cycle_time:float -> (Constraints.t, string) result
(** Per-edge routing budgets as described above.  [Error] explains the
    failure if [cycle_time < critical_path] (negative slack: no
    routing budget can make the circuit meet timing). *)

val slacks : t -> cycle_time:float -> (int * int * float) list
(** Per-edge path slacks (before division by path length); may be
    negative. *)
