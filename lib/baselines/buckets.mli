(** Fiduccia–Mattheyses-style gain buckets, generalized to M-way moves.

    Both baselines pick, each step, the legal move (GFM) or swap (GKL)
    with the most negative delta — a full {m N×M} (or {m N²}) scan per
    step in the naive implementation.  This module keeps every
    (component, destination-partition) move cell on a doubly-linked
    bucket list keyed by a quantized gain, so selection touches only
    the few lowest buckets of each partition-pair row and updates cost
    {m O(deg·M)} per applied move.

    {2 Cell layout}

    Cell [c = j*M + i] stands for "move component [j] to partition
    [i]".  Cells live in flat [prev]/[next]/[bucket] arrays (no
    records, no boxing); [-1] terminates lists.  Cells with
    [i = a.(j)], cells of locked components and, given constraints,
    cells whose move timing rules out (see below) are unlinked.

    Rows group cells by (source, destination) partition pair:
    cell [c] belongs to row [a.(j)*M + i].  GFM selection scans the
    {m M(M-1)} rows' lowest buckets; GKL selection pairs row
    {m (p1→p2)} against row {m (p2→p1)} so a swap candidate's key
    lower-bound is the sum of two bucket bounds plus a precomputed
    direct-wire correction bound.

    {2 Gain scaling and overflow}

    Gains are floats; keys are [floor ((g - g0) / q) + 1] with [g0]/[q]
    fitted to the gain range at the last {!reset}.  Buckets are
    {e coarse filters}, never the comparison itself: selection scans
    every bucket whose lower bound could still contain a winner and
    compares exact deltas (with the scan implementations' exact
    tie-breaking).  Gains drifting outside the fitted range during a
    pass clamp into the end buckets — bucket [0] has lower bound
    [-inf], the top bucket is open above — which degrades those
    buckets to scans but never drops or misorders a candidate. *)

module Netlist := Qbpart_netlist.Netlist
module Topology := Qbpart_topology.Topology
module Constraints := Qbpart_timing.Constraints

type t

val create :
  ?nbuckets:int -> ?constraints:Constraints.t -> Netlist.t -> Topology.t -> Gains.t -> t
(** Wrap a gains table.  [nbuckets] (default 128, clamped to at least
    8) trades memory ({m M²·nbuckets} ints) against quantization
    collisions.  With [constraints], selection is timing-legal too
    (see below); components from [Constraints.n] on (GKL's padding
    dummies) carry no budgets.  The structure starts linked, as after
    {!reset}. *)

val reset : t -> unit
(** Start-of-pass: unlock everything, refit the gain scale to the
    current gain range, recount the cells' timing violations, relink
    every cell.  {m O((N + B)·M + M²·nbuckets)} for {m B} budgets. *)

val lock : t -> int -> unit
(** Lock a component for the rest of the pass: its cells are unlinked
    and it stops appearing in selections until {!reset}. *)

val is_locked : t -> int -> bool

val apply_move : t -> j:int -> target:int -> unit
(** [Gains.apply_move] plus relinking of the mover's cells, its wired
    neighbors' and — given constraints, after patching their violation
    counts — its timing partners'.  {m O((deg + partners)·M)}. *)

val apply_swap : t -> j1:int -> j2:int -> unit
(** Exchange two components' partitions (two moves). *)

(** {2 Selection and the [legal] contract}

    Both selections own capacity and, when {!create} was given
    constraints, timing:
    - {e capacity}: the exact expression of {!Gains.move_fits} (resp.
      {!Gains.swap_fits}), evaluated on the same sizes, loads and
      capacities read as flat arrays, so it accepts exactly the same
      candidates;
    - {e timing}: a move must violate no budget against the partners'
      current places; each end of a swap must pass
      {!Qbpart_timing.Check.placement_ok} with the other end already
      in its old place.  Each cell counts the partners its move would
      violate, maintained on every {!apply_move}; a cell whose count
      rules it out is not linked at all, so it is never visited.

    Per candidate the cheap filters run first — the delta bound,
    capacity, the exact delta — and only an improvement on the
    incumbent reaches the timing check and then [legal], an optional
    extra restriction (default: none).  [legal] must be pure.  The
    answer is the lexicographic minimum over all candidates that pass
    every filter, so it does not depend on the order in which
    candidates are visited.

    Neither selection allocates beyond its [Some] result, provided
    [legal] does not. *)

val best_move : ?legal:(j:int -> target:int -> bool) -> t -> (int * int * float) option
(** [best_move t] is [Some (j, i, delta)] for the capacity- and
    timing-feasible, legal move minimizing [(delta, j, i)]
    lexicographically over unlocked components — exactly the move the
    GFM row scan selects, including ties.  [None] when no linked cell
    qualifies. *)

val best_swap : ?legal:(j1:int -> j2:int -> bool) -> t -> (int * int * float) option
(** [best_swap t] is [Some (j1, j2, delta)] ([j1 < j2]) for the
    capacity- and timing-feasible, legal cross-partition swap
    minimizing [(delta, j1, j2)] lexicographically — exactly the pair
    the GKL pair scan selects.  Partition pairs are visited best-first
    by the bound of their two lowest buckets; within a pair,
    candidates are pruned by bucket bounds plus a precomputed lower
    bound on the direct-wire correction term. *)
