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
    active list, the items still off their minimum ([n] ints). *)

val lists : m:int -> n:int -> lists

val shift_in_place :
  Gap.t ->
  int array ->
  residual:float array ->
  min_cost:float array ->
  lists:lists ->
  unit

val shift_and_swap_in_place :
  Gap.t ->
  int array ->
  residual:float array ->
  min_cost:float array ->
  lists:lists ->
  unit
(** [min_cost] must hold each item's cheapest cost over all
    knapsacks, {m min_i c_{ij}}, for this instance's costs.  The shift
    pass skips every item already at its unconstrained cheapest
    knapsack: no knapsack is strictly cheaper for it, so it could never
    move.

    Any other item's first visit in a call scans all knapsacks and
    records its candidate list in [lists]; later visits walk only the
    list, with the full scan's test and in its ascending order, so they
    pick the same knapsack (the first of the cheapest that fit).  The
    costs are fixed during a call, so a list stays exact until its
    item moves.  A shift to knapsack [b] keeps the entries strictly
    cheaper than [b]; a swap drops the lists of both items it moves.
    A NaN cost enters no list.  Each call starts with no list built.
    The moves, and so the result, are exactly those of a full scan
    (DESIGN.md D24).

    {!shift_in_place} visits every item once, then only the items that
    visit left off their minimum, ascending, dropping each as it
    reaches it: under shifts alone an item at its minimum never moves
    again, so later passes visit what a full pass would.  An item with
    a NaN cost is never at its minimum and stays.  A swap can move an
    item off its minimum, so {!shift_and_swap_in_place} keeps full
    passes (DESIGN.md D26). *)

val residual_into : Gap.t -> int array -> float array -> unit
(** Write [capacity - loads assignment] into a caller-provided
    length-[m] buffer. *)
