(** The search driver: the engine's primary stage, which answers every
    [qbpart solve -a qbp], is one call to {!solve} (DESIGN.md D18,
    D33).

    Section 5 of the paper observes that the Burkard iteration lands
    near the same cost from many random starts.  Generation 0 turns
    that robustness into throughput: [starts] independent
    penalty-continuation solves ({!Qbpart_core.Adaptive.solve}), each
    with its own seed, on a pool of at most [jobs] domains that pull
    start indices from a shared atomic counter.  With [generations =
    1] that is the whole run — the multi-start portfolio, and with
    [starts = 1] a plain [Adaptive.solve].  Later generations make the
    starts cooperate: every generation's feasible champions are
    offered to a diversity-guarded elite pool ({!Epool}), and the next
    generation's starts are warm-started from recombined elites —
    label-aligned crossover and path relinking ({!Operators}), plus
    recursive-bipartition seeds ({!Seeds}) — each repaired back to
    the C1/C2 feasible set before use.

    Determinism contract (DESIGN.md D7, extended as D12):

    - starts never couple {e within} a generation, so each start
      runs exactly the trajectory its seed dictates; generation
      results are admitted to the pool in ascending global start
      index, so the pool state (and hence every child) is a pure
      function of the base seed, never of domain count or completion
      order;
    - start 0 uses the base seed itself and receives the caller's warm
      start, so [solve ~starts:1 ~generations:1] reproduces a plain
      [Adaptive.solve] run exactly;
    - the champion is chosen by scanning start indices in ascending
      order with strict improvement, over all generations, so a fixed
      base seed yields a bit-identical winner whatever [jobs] and
      [inner_jobs] are.

    Warm starts are captured by Burkard's initial [consider], so a
    child's quality is reflected in its start's result and the
    reported champion always comes from an actually-executed
    trajectory — independently checkable by
    {!Qbpart_core.Certify.check}. *)

module Assignment := Qbpart_partition.Assignment
module Problem := Qbpart_core.Problem
module Burkard := Qbpart_core.Burkard

type start_report = {
  start : int;               (** global start index, [0 .. starts-1] *)
  generation : int;          (** generation this start ran in *)
  seed : int;                (** RNG seed of the last attempt executed (of
                                 attempt 0 if none ran) *)
  attempts : int;            (** attempts consumed (1 unless retried; 0 if
                                 stopped before it began) *)
  reseeded : bool;           (** start was warm-started from the pool *)
  best_cost : float;         (** best penalized cost this start reached *)
  feasible_cost : float option;  (** best feasible equation-(1) cost, if any *)
  wall_seconds : float;
  stalled : bool;
  interrupted : bool;
  failure : string option;
}

exception All_starts_failed of (int * string) list
(** Every executed start exhausted its attempts; carries the final
    [(start, failure)] pairs in ascending start order.  Raised by
    {!solve} only when {e no} start survives — a supervised run
    degrades through individual failures rather than aborting. *)

type result = {
  best_feasible : (Assignment.t * float) option;
  best : Assignment.t option;
  best_cost : float;
  winner : int option;       (** global start index of the champion *)
  reports : start_report list;  (** executed starts, ascending index *)
  elites : Epool.entry list; (** final pool, ascending (cost, birth) *)
  jobs : int;
  starts : int;              (** total starts across all generations *)
  generations : int;         (** generations actually configured *)
  admitted : int;            (** pool admissions (incl. replacements) *)
  reseeded : int;            (** starts warm-started from the pool *)
  interrupted : bool;
}

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count ())]. *)

val auto_inner_jobs : domains:int -> jobs:int -> starts:int -> generations:int -> int
(** The inner pool size of a start when [domains] domains are shared
    among the starts that {!solve} with these [jobs], [starts] and
    [generations] runs at once (generation 0's start count, capped by
    [jobs]): [domains] divided by that count, at least 1 and at most
    2, since MTHG forks two criterion legs (DESIGN.md D28).  Those
    starts times this size never exceed [domains], unless the starts
    alone do.  {!solve}'s omitted [inner_jobs] is this count for
    [domains = jobs]; the daemon gives a served job its own share. *)

val start_seed : base:int -> int -> int
(** The seed of start [k]: [base] when [k = 0], then distinct streams
    via a large odd stride.  Exposed so tests and benches can predict
    any start's trajectory. *)

val retry_seed : base:int -> start:int -> attempt:int -> int
(** The seed of attempt [attempt] of start [start]: [start_seed] for
    attempt 0, then a second large odd stride per retry.  Pure in its
    arguments, so supervision keeps the search deterministic and a
    resumed run re-derives identical retry seeds. *)

val solve :
  ?config:Burkard.Config.t ->
  ?max_rounds:int ->
  ?factor:float ->
  ?jobs:int ->
  ?inner_jobs:int ->
  ?starts:int ->
  ?generations:int ->
  ?pool_size:int ->
  ?min_distance:int ->
  ?retries:int ->
  ?skip:(int -> bool) ->
  ?initial:Assignment.t ->
  ?should_stop:(unit -> bool) ->
  ?stall:int * float ->
  ?gap_solver:Burkard.gap_solver ->
  ?on_start_complete:(start_report -> (Assignment.t * float) option -> unit) ->
  Problem.t ->
  result
(** Run the search.  [starts] (default 1) is the {e total} solve
    budget, split across [generations] (default 4, clamped to
    [starts]): later generations get [max 1 (starts / (2 *
    generations))] starts each and generation 0 the remainder, so at
    equal [starts] every generation count spends the same wall-clock
    budget.  [pool_size] (default 8) caps the elite pool;
    [min_distance] is the pool's diversity radius in aligned Hamming
    distance (default [max 1 (n / 16)]).

    [config], [max_rounds], [factor] and [gap_solver] go to every
    start's {!Qbpart_core.Adaptive.solve}; [config.seed] is the base
    seed.  [jobs] caps the domains running starts (default
    {!default_jobs}; a generation never runs more domains than it has
    starts).  [inner_jobs] gives every running start a
    {!Qbpart_pool.Dompool} of that many workers, which runs the
    criterion legs of each STEP-4 and STEP-6 MTHG call side by side
    and fans out STEP 3's row refresh when it has many rows to
    compute, so a single start can use several cores.  Each batch
    worker takes one such pool ({!Qbpart_pool.Dompool.acquire}) and
    keeps it for all the starts and attempts it runs.  Omitted, it is
    automatic, {!auto_inner_jobs} with [domains = jobs]: one start
    with the default [jobs] on two cores gets two domains, four starts
    on two cores get one each, and [jobs = 1] runs sequentially on the
    calling domain without spawning (DESIGN.md D28); [inner_jobs = 1]
    never spawns an inner domain.  The box runs up
    to that many starts times [inner_jobs] domains, and a product
    above the recommended domain count earns a stderr warning once per
    distinct product: oversubscribing only slows every domain down and
    never changes results.  [initial] warm-starts global start 0
    only.  [should_stop] is polled cooperatively by every
    start (deadline cancellation).  Generation 0 always reports every
    start, but once it fires only start 0's first attempt still runs
    (so a run cancelled before it started still has an answer): any
    other start or retry that begins after it builds nothing and
    reports [interrupted], a start that never ran with [attempts = 0]
    and no result, so a checkpoint resume re-runs it.  Later
    generations are dropped once it fires.
    [stall] is a per-start [(patience, epsilon)] guard: a start whose
    penalized cost has not improved by [epsilon] for [patience]
    iterations stops (default [(0, 0.0)], disabled).

    Supervision: an attempt that raises never aborts the run — it is
    retried up to [retries] more times (default 0) with
    {!retry_seed}-derived seeds, and a start that exhausts its
    attempts is recorded in its report ([failure], [attempts]) while
    the surviving starts reduce as usual.  {!All_starts_failed} is
    raised only when every executed start failed.  [skip] (for
    checkpoint resume of a one-generation run) excludes start indices
    entirely: they run nothing and produce no report.
    [on_start_complete] is called under a lock as each start finishes
    — with the start's report and a copy of its feasible champion, if
    any — so a caller can checkpoint progress without waiting for the
    join.

    [gap_solver] and [on_start_complete] closures run on several
    domains when [jobs > 1] — stateful fault injectors are only safe
    with [jobs = 1].

    @raise Invalid_argument on non-positive [starts], [jobs],
    [inner_jobs], [generations], [pool_size] or negative [retries],
    [min_distance]. *)
