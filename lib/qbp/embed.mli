(** The timing-constraint embedding theorems, executable.

    Theorem 1 (Existence of Embedding): with
    {m U > 2·Σ|q_{r_1 r_2}|}, replacing every entry outside the region
    of feasible pairs {m ℛ} by {m U} makes the unconstrained problem
    {m QBP(Q')} exactly equivalent to the constrained
    {m QBP_ℛ(Q)}.

    Theorem 2 (Sufficient Condition): {e any} coincident-over-{m ℛ}
    matrix {m Q̂} works, provided the minimizer found is itself in
    {m 𝓕_ℛ} — "no matter how slightly you raise the values, as long as
    no timing violation exists in the solution, this solution is
    guaranteed to be a minimum solution of the original problem".
    The paper uses 50. *)

module Assignment := Qbpart_partition.Assignment

val theorem1_penalty : Problem.t -> float
(** A valid Theorem-1 [U]: {m 2·Σ_{r_1 r_2} |q_{r_1 r_2}| + 1} over
    the un-embedded cost matrix, whose sum is computed sparsely as
    {m Σ_{ij}|p_{ij}| + (Σ_{j_1≠j_2} a)·(Σ_{i_1 i_2} b)} under the
    paper's symmetric-A convention (each wire counted in both
    directions).  The problem is normalized first. *)

val in_region : Problem.t -> int -> int -> bool
(** [(r1, r2) ∈ ℛ]: the two candidate assignments are mutually
    timing-feasible ({m D(i_1,i_2) ≤ D_C(j_1,j_2)}).  Pairs with
    {m j_1 = j_2} are always in {m ℛ} (C3 prevents co-selection). *)

val solution_in_feasible_set : Problem.t -> Assignment.t -> bool
(** {m y ∈ 𝓕_ℛ}: every pair of selected coordinates is in {m ℛ} —
    equivalently, the assignment satisfies all timing constraints. *)

val theorem2_certificate : Qmatrix.t -> Assignment.t -> bool
(** Whether Theorem 2's side condition holds for a solution returned
    by minimizing {m yᵀQ̂y}: true iff the solution is timing-feasible,
    in which case its {m Q̂}-value equals its {m Q}-value and
    optimality transfers. *)
