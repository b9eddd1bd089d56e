(** Local improvement for GAP solutions. *)

val shift : Gap.t -> int array -> int array
(** Repeatedly move single items to a cheaper knapsack with room,
    until no improving shift exists.  Input must be feasible; the
    input array is not modified. *)

val shift_and_swap : Gap.t -> int array -> int array
(** {!shift} interleaved with improving pairwise item swaps (both
    moves must fit).  Terminates at a local optimum of the combined
    neighborhood. *)

(** {1 Allocation-free variants}

    The pooled MTHG path ({!Mthg.workspace}) already owns a residual
    array consistent with its construction, so improvement can run in
    place with zero allocation.  [residual] must equal
    [capacity - loads assignment] on entry and is maintained by the
    pass. *)

type lists
(** Scratch for the shift's candidate lists: for each item, the
    knapsacks strictly cheaper than its own, in ascending order, one
    byte per entry ([n·m] bytes and [n] ints).  With more than 256
    knapsacks no list is kept.  It also holds {!shift_in_place}'s
    active list, the items whose list is not empty ([n] ints). *)

val lists : m:int -> n:int -> lists

val shift_in_place : Gap.t -> int array -> residual:float array -> lists:lists -> unit
(** {!shift} in place.  It first builds every item's list in [lists]:
    an item is active exactly when its list is not empty, that is, when
    some knapsack is strictly cheaper for it than its own.  It then
    visits the active items, ascending, pass after pass until a pass
    moves nothing, and drops each item whose list empties.  Under
    shifts alone a list only shrinks (a move to [b] keeps the entries
    strictly cheaper than [b]), so a dropped item could never move
    again, and the visits this skips are ones that could move nothing.
    The moves, their order and the result are those of full passes
    over every item (DESIGN.md D35).  With more than 256 knapsacks no
    list is kept: every visit scans all knapsacks, and the same scan
    decides whether a knapsack strictly cheaper than the item's own
    remains.  An item whose own cost is NaN has an empty list. *)

val shift_and_swap_in_place :
  Gap.t ->
  int array ->
  residual:float array ->
  min_cost:float array ->
  lists:lists ->
  unit
(** [min_cost] must hold each item's cheapest cost over all
    knapsacks, {m min_i c_{ij}}, for this instance's costs.  Every
    shift pass visits every item except those already at their
    unconstrained cheapest knapsack: no knapsack is strictly cheaper
    for such an item, so it could not move.  An item with a NaN cost is
    never at its minimum.  A swap can move an item to a dearer
    knapsack and drops its list, so this one keeps the minima and full
    passes (DESIGN.md D26).

    In both, an item's first visit in a call, or its first after a
    swap moved it, scans all knapsacks and records its candidate list;
    later visits walk only the list, with the full scan's test and in
    its ascending order, so they pick the same knapsack (the first of
    the cheapest that fit).  The costs are fixed during a call, so a
    list stays exact until its item moves.  A NaN cost enters no list.
    Each call starts with no list of an earlier one.  The moves, and so
    the result, are exactly those of a full scan (DESIGN.md D24). *)

val min_cost_into : Gap.t -> float array -> unit
(** Write each item's cheapest cost over all knapsacks into a
    caller-provided length-[n] buffer: {!shift_and_swap_in_place}'s
    [min_cost]. *)

val residual_into : Gap.t -> int array -> float array -> unit
(** Write [capacity - loads assignment] into a caller-provided
    length-[m] buffer. *)
