(** GKL — generalized Kernighan–Lin baseline (paper section 5).

    "A generalization of Kernighan & Lin's heuristic, switching a pair
    of components at a time.  Associated with each component are (N−1)
    gain entries, each entry representing the potential gain if that
    component is switched with the corresponding component."

    Outer loops follow KL: within a loop, repeatedly apply the
    best-gain legal pair swap (negative gains allowed), lock both
    components, and rewind to the best prefix at the end; the paper
    caps the outer loops at 6 "due to excessive CPU runtime".  A swap
    is legal iff both components fit their new partitions and neither
    end violates timing at its new location (evaluated with the other
    end already moved).  Because exchanging two components of unequal
    size can break C1, capacity is re-checked per swap.

    An additional inner-loop stall cutoff bounds the number of
    consecutive non-improving swaps explored; KL's full pass is
    retained when the cutoff is large.  This repository's default (80)
    changes results negligibly while keeping the quadratic pair scan
    affordable — the same trade the paper makes with its outer-loop
    cutoff. *)

module Netlist := Qbpart_netlist.Netlist
module Topology := Qbpart_topology.Topology
module Constraints := Qbpart_timing.Constraints
module Assignment := Qbpart_partition.Assignment

type selection =
  | Scan     (** full N² pair scan per swap — the reference implementation *)
  | Buckets  (** {!Buckets} partition-pair bucket selection — same
                 swaps, same tie-breaking, bit-identical results
                 (property-tested against [Scan]) *)

type config = {
  max_outer : int;   (** outer-loop cap (paper: 6) *)
  stall_cutoff : int;(** stop the inner loop after this many
                         consecutive swaps without a new best prefix *)
  epsilon : float;   (** minimum outer-loop improvement to continue *)
  dummies : int;
      (** Kernighan & Lin's classic device for unequal sizes: each
          partition's spare capacity is padded with this many
          unconnected dummy components (geometric size split), so that
          swapping a real component with a dummy realizes a plain
          move and the swap neighbourhood subsumes GFM's.  0 restricts
          the search to pure component-pair switches. *)
  selection : selection;  (** swap-selection kernel (default [Buckets]) *)
}

val default_config : config
(** [max_outer = 6], [stall_cutoff] effectively unbounded,
    [epsilon = 1e-9], [dummies = 6]. *)

type result = {
  assignment : Assignment.t;
  cost : float;     (** equation-(1) objective *)
  outer_loops : int;
  swaps : int;      (** swaps applied before rewinds *)
  interrupted : bool; (** [should_stop] fired before convergence *)
}

val with_dummies :
  chunks:int ->
  ?p:float array array ->
  Netlist.t ->
  Topology.t ->
  Assignment.t ->
  Netlist.t * Assignment.t * float array array option
(** The padding {!solve} applies when [dummies = chunks > 0]: 70% of
    each partition's spare capacity under [initial] becomes up to
    [chunks] unconnected dummies (halving sizes, the last one takes the
    rest), appended after the real components with
    {!Netlist.append_isolated}.  Returns the padded netlist, the
    padded assignment (each dummy in its partition) and [p] with
    zero-cost dummy columns. *)

val solve :
  ?config:config ->
  ?p:float array array ->
  ?alpha:float ->
  ?beta:float ->
  ?constraints:Constraints.t ->
  ?should_stop:(unit -> bool) ->
  Netlist.t ->
  Topology.t ->
  initial:Assignment.t ->
  result
(** [should_stop] is polled before every pair-swap selection (each one
    is a quadratic scan, the natural checkpoint granularity); when it
    fires the inner loop is cut short, rewound to its best prefix, and
    the best-so-far (still feasible) solution is returned with
    [interrupted = true].
    @raise Invalid_argument if [initial] is infeasible. *)
