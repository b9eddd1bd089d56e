(** Initial-solution construction.

    GFM and GKL "start with an initial solution with no timing or
    capacity violations" (paper section 5).  The paper obtains that
    solution by running QBP with {m B = 0}; that variant lives in the
    core library ({!Qbpart_core.Burkard.initial_feasible}) because it
    needs the solver.  This module provides the solver-independent
    constructions: first-fit-decreasing packing and a randomized
    greedy that also respects timing constraints, used as fallbacks,
    for tests, and as random restart points. *)

module Netlist := Qbpart_netlist.Netlist
module Topology := Qbpart_topology.Topology
module Constraints := Qbpart_timing.Constraints
module Rng := Qbpart_netlist.Rng

val first_fit_decreasing : Netlist.t -> Topology.t -> Assignment.t option
(** Components by decreasing size into the currently least-loaded
    partition with room.  [None] if some component fits nowhere
    (capacity only; ignores timing). *)

val greedy_feasible :
  ?constraints:Constraints.t ->
  ?attempts:int ->
  Rng.t ->
  Netlist.t ->
  Topology.t ->
  unit ->
  Assignment.t option
(** Randomized greedy: components ordered by decreasing
    (constraint-degree, size), each placed in a random partition that
    respects capacity and all timing constraints against
    already-placed components.  Retries with fresh randomness up to
    [attempts] times (default 50). *)
