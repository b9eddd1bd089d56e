(** Exact GAP solver (depth-first branch and bound).

    Intended for small instances (roughly [n <= 20]); used to validate
    {!Mthg} in tests and in the solver-quality benchmarks.  The bound
    is the classic sum of per-item minima over the remaining items. *)

val solve : Gap.t -> (int array * float) option
(** Optimal assignment and its cost, or [None] if the instance is
    infeasible.  Items are explored big-first; a cap of 10 million
    search nodes raises [Failure] when exceeded so callers never hang
    silently. *)
