(** Timing-constraint checking: the paper's C2.

    An assignment {m A} satisfies C2 iff
    {m D(A(j_1), A(j_2)) ≤ D_C(j_1, j_2)} for every stored budget.
    Assignments are plain [int array]s mapping component id to
    partition index (the same representation used throughout the
    repository). *)

type violation = {
  j1 : int;
  j2 : int;
  delay : float;  (** {m D(A(j_1), A(j_2))} *)
  budget : float; (** {m D_C(j_1, j_2)} *)
}

val violations :
  Constraints.t -> Qbpart_topology.Topology.t -> assignment:int array -> violation list
(** All violated directed constraints, in iteration order. *)

val count :
  Constraints.t -> Qbpart_topology.Topology.t -> assignment:int array -> int
(** Number of violated directed constraints (cheaper than building the
    list). *)

val feasible :
  Constraints.t -> Qbpart_topology.Topology.t -> assignment:int array -> bool

val worst_slack :
  Constraints.t -> Qbpart_topology.Topology.t -> assignment:int array -> float
(** {m min (D_C - D)} over stored constraints; {m +∞} when there are
    none.  Negative iff infeasible. *)

val placement_ok :
  Constraints.t ->
  Qbpart_topology.Topology.t ->
  assignment:int array ->
  j:int ->
  at:int ->
  other:int ->
  bool
(** [placement_ok c topo ~assignment ~j ~at ~other] checks every
    budget involving [j] with [j] placed at [at].  Each partner [j']
    sits at [assignment.(j')], except [other], the swap partner, which
    takes [j]'s current place [assignment.(j)] (pass [other = -1] for a
    plain move); a partner with a negative place is not placed yet and
    its budgets are ignored.  This is the move and swap legality
    primitive of the GFM/GKL baselines ("moves are allowed to take
    place only when they do not introduce timing violations") and of
    the greedy start.  It walks [j]'s partner CSR row by index and
    allocates nothing. *)
