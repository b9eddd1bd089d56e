(** Resilient solver orchestration: anytime semantics and graceful
    degradation over the three heuristics.

    The paper promises "precise control over the total runtime"
    (§4.2); production callers additionally need a partitioning call
    that {e always} returns some feasible answer within its budget,
    whatever happens inside the solve.  [Engine.solve] delivers that
    contract as a degradation ladder:

    + validate every input up front, reporting structured
      {!Error.t} values instead of the [failwith]/[invalid_arg]
      behaviour of the underlying libraries;
    + secure a feasible {e safety-net} solution (the caller's initial
      if feasible, else randomized greedy, else first-fit plus strict
      repair) — if even that fails the instance is diagnosed via
      {!Qbpart_partition.Validate.check} and reported as an error;
    + run QBP (penalty-continuation Burkard) under the deadline with a
      stall detector; on timeout, stall, or any exception fall back to
      GKL, then GFM, each running on whatever budget remains and each
      starting from the best solution so far;
    + return the best feasible solution seen anywhere, together with a
      machine-readable {!Report.t} naming every stage, its outcome,
      its wall time, and the fallbacks taken.

    Invariants (enforced by the fault-injection suite in
    [test/test_engine.ml]):

    - [solve] never raises;
    - an [Ok] result is feasible per {!Qbpart_partition.Validate.check};
    - an [Ok] result never costs more than the safety-net initial
      solution;
    - a longer deadline never yields a worse result on the same
      instance (anytime property). *)

module Netlist := Qbpart_netlist.Netlist
module Assignment := Qbpart_partition.Assignment
module Validate := Qbpart_partition.Validate
module Problem := Qbpart_core.Problem
module Burkard := Qbpart_core.Burkard
module Certify := Qbpart_core.Certify

module Error : sig
  (** Structured input diagnoses.  These cover exactly the conditions
      under which the underlying solvers ([Burkard]/[Adaptive] from
      [qbpart_core], the [qbpart_baselines] pair, and the
      [qbpart_partition] validators) would raise on their public
      paths; the engine reports them as values instead. *)
  type t =
    | No_partitions of { components : int }
        (** [M = 0] with components left to place *)
    | Invalid_config of { field : string; reason : string }
        (** a {!Config.t} field the solvers would reject *)
    | Invalid_initial of {
        expected_length : int;
        length : int;
        issues : Validate.issue list;
      }
        (** the caller's warm start is structurally unusable: wrong
            length, or components assigned outside {m [0, M)}.  A
            merely capacity- or timing-infeasible warm start is {e
            not} an error — the engine still uses it to seed QBP and
            builds its own safety net. *)
    | No_feasible_start of { attempts : int; issues : Validate.issue list }
        (** no feasible solution could be constructed; [issues]
            diagnoses the best attempt (from
            {!Qbpart_partition.Validate.check}) *)
    | Certification_failed of { certificate : Certify.t }
        (** the independent audit ({!Qbpart_core.Certify.check})
            rejected the would-be result — a corrupt optimum is
            reported as this structured error, never returned *)
    | Resume_rejected of string
        (** the [resume] checkpoint cannot be used against this
            instance (hash mismatch, corrupt file semantics); payload
            is the rendered {!Checkpoint.error} *)
    | Internal of string
        (** an exception escaped the engine's own bookkeeping before
            any feasible solution existed — never raised to the
            caller *)

  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end

module Report : sig
  type stage_outcome =
    | Completed           (** ran to its natural convergence *)
    | Timed_out           (** deadline fired; best-so-far checkpoint kept *)
    | Stalled of int      (** aborted after this many iterations without improvement *)
    | Crashed of string   (** an exception was caught; payload is its rendering *)
    | Skipped of string   (** never ran, and why *)

  type stage = {
    name : string;
        (** ["initial"], ["qbp"] (or ["portfolio"], ["evolve"]), ["gkl"], ["gfm"] *)
    outcome : stage_outcome;
    wall_seconds : float; (** wall time spent in this stage *)
    cost_after : float;   (** best feasible equation-(1) cost after the stage *)
    detail : string option;
        (** the primary stage's start accounting: always for
            ["evolve"] (generations, starts run, pool admissions,
            reseeds); for ["qbp"] and ["portfolio"] (starts executed /
            retried / failed) only when some start deviated from the
            happy path; [None] otherwise *)
  }

  type t = {
    stages : stage list;     (** chronological *)
    fallbacks : string list; (** fallback stages that actually ran, in order *)
    winner : string;         (** stage that produced the returned assignment *)
    initial_cost : float;    (** cost of the safety-net solution *)
    final_cost : float;      (** cost of the returned assignment; ≤ [initial_cost] *)
    wall_seconds : float;    (** total wall time inside [solve] *)
    deadline_expired : bool;
    issues : Validate.issue list;
        (** {!Qbpart_partition.Validate.check} of the returned
            assignment — [[]] by the engine's invariant, recorded so a
            violation of that invariant is observable, not silent *)
  }

  val pp : Format.formatter -> t -> unit
  val pp_stage_outcome : Format.formatter -> stage_outcome -> unit
end

module Fault : sig
  (** Deterministic fault injection, for proving the degradation
      ladder.  A fault is armed inside the QBP stage only; the
      fallback stages always run clean, which is exactly the property
      under test: whatever happens to the primary solver, the engine
      returns a feasible answer no worse than the safety net. *)

  exception Injected of string
  (** The exception thrown by {!Raise_at} — deliberately {e not} an
      exception the engine knows about, so the test exercises the
      generic crash path. *)

  type t =
    | Raise_at of int
        (** raise {!Injected} from the STEP-4 GAP of iteration k *)
    | Gap_overflow of int
        (** from iteration k on, every GAP call returns the
            all-in-partition-0 assignment — a capacity-overflowing
            answer the relaxed MTHG could legitimately produce on
            over-tight subproblems *)
    | Gap_freeze of int
        (** from iteration k on, the STEP-6 GAP repeats its previous
            answer verbatim: the objective flatlines and the stall
            detector must fire *)
    | Expire_mid_step6 of int
        (** cancel the deadline right after the STEP-6 GAP of
            iteration k returns, so the cooperative stop fires at the
            mid-iteration checkpoint *)
    | Flaky_start of int
        (** the first k GAP calls of the stage raise {!Injected}: with
            [jobs = 1] the leading attempt(s) die immediately and the
            supervised search must retry them — the run still ends
            with a certified feasible answer *)
    | Corrupt_incumbent
        (** let the solve run clean, then corrupt the {e reported}
            cost before certification — simulates a delta-kernel drift
            bug and must surface as {!Error.t.Certification_failed} *)
end

module Config : sig
  type t = {
    qbp : Burkard.Config.t;       (** inner Burkard configuration *)
    max_rounds : int;             (** penalty-continuation rounds (≥ 1) *)
    penalty_factor : float;       (** penalty multiplier between rounds (> 1) *)
    stall_patience : int;
        (** QBP iterations without penalized-cost improvement before
            the stage is declared stalled and the ladder descends;
            0 disables stall detection *)
    stall_epsilon : float;        (** minimum improvement that resets the stall counter *)
    start_attempts : int;         (** randomized-greedy restarts for the safety net *)
    starts : int;
        (** QBP starts (≥ 1), the total budget across all generations.
            The primary stage is one {!Qbpart_evolve.Evolve.solve}
            call; with one generation it reports as ["qbp"] for a
            single start and ["portfolio"] above that *)
    jobs : int option;
        (** domain-pool cap for the starts; [None] means
            {!Qbpart_evolve.Evolve.default_jobs} *)
    inner_jobs : int;
        (** per-start {!Qbpart_pool.Dompool} size for the intra-solve
            work: MTHG's criterion legs in STEPs 4 and 6, side by
            side, and STEP 3's row refresh when many rows are invalid.
            0 (the default) is automatic: the [jobs] domains shared
            among the starts that run at once, at most 2 each
            ({!Qbpart_evolve.Evolve.auto_inner_jobs}); 1 keeps every
            start single-domain.  The answer is the same for every
            value (DESIGN.md D28) *)
    retries : int;
        (** extra supervised attempts per start after a failure (≥ 0);
            seeds are re-derived deterministically via
            {!Qbpart_evolve.Evolve.retry_seed} *)
    generations : int;
        (** search generations (≥ 1).  1 runs independent starts, and
            a checkpoint records each start as it finishes so a resume
            skips it.  Above 1 the starts cooperate through an elite
            pool (the stage reports as ["evolve"]); such runs are not
            resumable start-by-start: checkpoints carry the incumbent
            but no per-start progress *)
    pool_size : int;    (** elite-pool capacity (≥ 1); the pool's
                            diversity radius is
                            {!Qbpart_evolve.Evolve.solve}'s default *)
  }

  val default : t
  (** Solver defaults; [stall_patience = 25], [stall_epsilon = 1e-6],
      [start_attempts = 200], [starts = 1] (plain single-start QBP),
      [jobs = None], [inner_jobs = 0] (automatic), [retries = 1],
      [generations = 1], [pool_size = 8].  The GKL and GFM fallback
      rungs run at their own defaults. *)
end

type outcome = {
  assignment : Assignment.t;
  cost : float;        (** equation-(1) objective of [assignment] *)
  report : Report.t;
  certificate : Certify.t;
      (** the passed independent audit of [assignment]/[cost] — every
          [Ok] outcome carries one ({!Qbpart_core.Certify.ok} holds) *)
}

val solve :
  ?config:Config.t ->
  ?deadline:Deadline.t ->
  ?initial:Assignment.t ->
  ?fault:Fault.t ->
  ?on_checkpoint:(Checkpoint.t -> unit) ->
  ?resume:Checkpoint.t ->
  Problem.t ->
  (outcome, Error.t) result
(** Run the ladder.  [deadline] defaults to unlimited; it is shared by
    every stage, so fallbacks only spend what the primary left.
    [initial] seeds QBP (any in-range assignment is accepted; if it is
    also feasible it doubles as the safety net).  [fault] is for
    tests.  Never raises.

    Crash safety: [on_checkpoint] receives a fresh {!Checkpoint.t}
    after the safety net is secured, as each start completes
    (possibly from a worker domain, serialized by the search driver's
    lock), and at every stage boundary — the caller decides whether
    and where to persist it ({!Checkpoint.save}).  The instance is
    hashed at most once per call, for [resume] and [on_checkpoint]
    together.  [resume] validates
    the checkpoint against the instance (structural hash), replaces
    [initial] with its incumbent, skips the starts it already ran, and
    accounts its consumed budget into every checkpoint written by this
    run; a mismatched or semantically unusable checkpoint is
    [Error Resume_rejected].  Every [Ok] result has passed the
    independent {!Qbpart_core.Certify.check} audit; a failed audit is
    demoted to [Error Certification_failed]. *)

val greedy_start :
  ?constraints:Qbpart_timing.Constraints.t ->
  ?attempts:int ->
  ?seed:int ->
  Netlist.t ->
  Qbpart_topology.Topology.t ->
  (Assignment.t, Error.t) result
(** The engine's safety-net construction, exposed on its own:
    randomized timing-aware greedy, then the paper's zero-B QBP recipe
    (a bounded {!Qbpart_core.Burkard.initial_feasible} run), then
    first-fit-decreasing with strict repair.  Runs to completion even
    when the caller's deadline has expired — the safety net is the
    floor every later stage is measured against, and it is bounded
    work.  [Error] is {!Error.No_feasible_start} with a diagnosis. *)
