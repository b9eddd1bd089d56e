(** Martello–Toth heuristic for the Generalized Assignment Problem.

    MTHG ("Knapsack Problems", 1990, chapter 7 — the paper's
    reference [12]) constructs a solution greedily: repeatedly pick the
    unassigned item whose {e regret} — the difference between its
    second-best and best feasible desirability — is largest, and
    commit it to its best feasible knapsack.  A shift-improvement pass
    follows.  Several desirability criteria are tried and the best
    feasible result wins.

    This is the inner solver of Burkard STEP 4 and STEP 6 in the
    generalized heuristic.  Both entry points accept an optional
    {!workspace} so a hot caller (one per portfolio start) runs the
    steady-state loop without allocating, and an optional domain pool
    that runs the criteria side by side. *)

type criterion =
  | Cost                (** {m f_{ij} = c_{ij}} *)
  | Cost_times_weight   (** {m f_{ij} = c_{ij} · w_{ij}} *)
  | Weight              (** {m f_{ij} = w_{ij}}: pack tight items first *)
  | Weight_per_capacity (** {m f_{ij} = w_{ij} / cap_i} *)

val all_criteria : criterion list

type workspace
(** Scratch buffers for one [(m, n)] shape: construction caches,
    residuals, the trial and champion assignments, the per-item
    cheapest costs, the radix sort of a construction's first regrets
    (two [n]-int buffers and a 256-int histogram; the first doubles as
    the overflow fill's placement order), the shift's candidate and
    active lists ({!Improve.lists}: [n·m] bytes and [2n] ints, rebuilt
    by every improvement), a memo of the cost-independent
    constructions, and whether the last minima scan ended in {!solve}'s
    early return.
    Single-domain, like the {!Gap.borrow}ed buffers it is used with:
    one solve at a time.  A solve forked on a pool (see {!solve}) also
    keeps one workspace per further criterion, made by its first fork,
    so a workspace that only ever solves on one domain holds none.

    The memo: [Weight] and [Weight_per_capacity] rank items by weight
    alone, so their construction — placement and residuals, or getting
    stuck — is the same for every cost matrix.  A solve given the
    workspace builds each at most once per key and copies it after
    that.  The key is the instance's weight side ([Gap.t.weights_id],
    which {!Gap.with_cost} keeps) plus the capacity
    contents, compared at every call, so an in-place capacity edit
    misses.  The memo holds no part of any instance. *)

val workspace : m:int -> n:int -> workspace
(** @raise Invalid_argument if [m < 1] or [n < 0]. *)

val construct : ?criterion:criterion -> Gap.t -> int array option
(** One greedy construction (no improvement); [None] if it gets stuck
    with an item that fits nowhere.  Default criterion [Cost]. *)

type improver = [ `None | `Shift | `Shift_and_swap ]
(** Post-construction local search: nothing, single-item shifts only,
    or shifts interleaved with pairwise swaps (most thorough, and
    quadratic in the item count per pass). *)

val solve :
  ?ws:workspace ->
  ?pool:Qbpart_pool.Dompool.t ->
  ?criteria:criterion list ->
  ?improve:improver ->
  Gap.t ->
  int array option
(** Run {!construct} under each criterion (default {!all_criteria}),
    locally improve each feasible result (default [`Shift_and_swap]),
    return the cheapest.  [None] if every construction got stuck —
    with very tight capacities the greedy can fail even when the
    instance is feasible.  The improvement's shift passes walk each
    item's candidate list, the knapsacks strictly cheaper than its own,
    instead of every knapsack (DESIGN.md D24).  With [`Shift] alone
    they visit only the items whose list is not empty (D35); with
    [`Shift_and_swap], every item not already at its cheapest knapsack
    (the per-item minima, computed once per call by the scan below,
    D16).  After a [Cost] construction that completed, [`Shift] is
    skipped: the construction put each item in its cheapest knapsack
    that fitted at that moment, and residuals only fall after that, so
    no shift could move (D35).  With [?ws]
    the cost-independent constructions come from the workspace's memo.
    Each construction sorts its items' first regrets once and keeps
    only the entries its refresh cascade adds on the lazy heap,
    selecting the greater of the two heads; if any first regret is NaN
    (two [-infinity] desirabilities among an item's fitting knapsacks)
    every entry goes on the heap instead (D26).  None of it changes
    any result.

    The minima scan runs when an improver runs and either [criteria]
    starts with [Cost] or the improver is [`Shift_and_swap]; it also
    places each item at the first knapsack of its minimum.  When
    [criteria] starts with [Cost], every minimum is finite and every
    knapsack's load [l] fits its capacity [c] with a margin for
    rounding ([l + 4(n+1)·ε·(c + l) ≤ c]), that placement is returned
    at once, with no construction, improvement or other criterion: it
    is exactly what they would return (DESIGN.md D22).  Any other list,
    and [`None], always constructs.  Otherwise, when [criteria] starts
    with [Cost] and an improver runs, the same scan can also compute
    each item's best and second-best cost among the knapsacks whose
    capacity holds it, and the [Cost] construction then starts from
    those instead of rescanning.  The scan does so only when the
    workspace's previous scan did not end in that early return, where
    the top-2 would go unused; a fresh workspace counts as one whose
    scan did (D26).

    [?pool] (default {!Qbpart_pool.Dompool.sequential}): when it has
    more than one domain and [criteria] has more than one entry, the
    constructions run side by side, one chunk per criterion
    ({!Qbpart_pool.Dompool.parallel_for}).  Chunk [k] always works in
    the same workspace, whichever domain claims it: the first
    criterion in [?ws] itself, each further one in a workspace of its
    own that [?ws] keeps, with its own memo and shift lists.  Each leg
    writes only its own workspace.  The cheapest placement wins as
    above, the first on ties, so the answer is bit-identical for every
    pool size (DESIGN.md D28).  Where the scan runs follows the same
    signal as the top-2: after a scan of this workspace that ended in
    the early return, and on a fresh workspace, it runs before the
    fork, and an early return forks nothing.  After a scan that did not
    end there the next one seldom does, so the fork comes first and
    leg 0 runs the scan: when the scan ends the solve, leg 0 builds
    nothing and returns its placement (the join still waits for the
    other legs); otherwise leg 0 goes on to its construction.  The
    other legs then never read [?ws]'s minima, which leg 0 is writing:
    [`Shift] does not read them, and under [`Shift_and_swap] each
    computes its own.  Both orders give the same answer (D35).
    The legs call the construction and improvement directly, never
    this entry point, so no borrowed instance's domain check is lifted:
    {!Gap.verify_domain} still guards every call on the caller's
    domain.

    With [?ws], no allocation happens beyond a fork's closure, and the
    returned array is owned by the workspace: it stays valid only until
    the next call using the same workspace, so callers must copy (or
    consume) it first.
    @raise Invalid_argument if the workspace shape does not match the
    instance. *)

val solve_relaxed :
  ?ws:workspace ->
  ?pool:Qbpart_pool.Dompool.t ->
  ?criteria:criterion list ->
  ?improve:improver ->
  Gap.t ->
  int array
(** Like {!solve} but never fails: items that fit nowhere are placed
    in the knapsack with maximum residual capacity, so the result may
    violate C1.  Used by the Burkard iteration to keep making progress
    on over-tight intermediate subproblems; the caller checks
    feasibility before accepting the final answer.  The [?ws]
    ownership contract and the [?pool] fork are {!solve}'s. *)

