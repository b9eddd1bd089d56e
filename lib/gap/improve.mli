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

val shift_in_place :
  Gap.t -> int array -> residual:float array -> min_cost:float array -> unit

val shift_and_swap_in_place :
  Gap.t -> int array -> residual:float array -> min_cost:float array -> unit
(** [min_cost] must be {!min_cost_into}'s per-item minimum for this
    instance's costs.  The shift pass skips every item already at its
    unconstrained cheapest knapsack: no knapsack is strictly cheaper
    for it, so it could never move.  The moves, and so the result, are
    exactly those of a full scan. *)

val min_cost_into : Gap.t -> float array -> unit
(** [min_cost_into g buf] writes each item's cheapest cost over all
    knapsacks, {m min_i c_{ij}}, into the length-[n] [buf]. *)

val residual_into : Gap.t -> int array -> float array -> unit
(** Write [capacity - loads assignment] into a caller-provided
    length-[m] buffer. *)
