module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Problem = Qbpart_core.Problem
module Burkard = Qbpart_core.Burkard
module Adaptive = Qbpart_core.Adaptive
module Dompool = Qbpart_pool.Dompool

type start_report = {
  start : int;
  seed : int;
  attempts : int;
  best_cost : float;
  feasible_cost : float option;
  wall_seconds : float;
  stalled : bool;
  interrupted : bool;
  failure : string option;
}

exception All_starts_failed of (int * string) list

let () =
  Printexc.register_printer (function
    | All_starts_failed failures ->
      Some
        (Printf.sprintf "Portfolio.All_starts_failed [%s]"
           (String.concat "; "
              (List.map (fun (k, msg) -> Printf.sprintf "start %d: %s" k msg) failures)))
    | _ -> None)

type result = {
  best_feasible : (Assignment.t * float) option;
  best : Assignment.t option;
  best_cost : float;
  winner : int option;
  reports : start_report list;
  jobs : int;
  starts : int;
  interrupted : bool;
}

(* Computed once per process: the count the admission decision uses is
   the count the warning prints — recomputing at warn time could show a
   different number than the one actually compared against. *)
let recommended_jobs = lazy (max 1 (Domain.recommended_domain_count ()))

let default_jobs () = Lazy.force recommended_jobs

(* Oversubscription warns once per distinct jobs value: a portfolio
   sweep (or a property test) re-entering [solve] with the same
   explicit count stays quiet across restarts, while a changed
   --jobs value earns a fresh warning.  0 = never warned. *)
let warned_oversubscribed = Atomic.make 0

(* Start k's seed: the base seed for k = 0 (so a 1-start portfolio
   reproduces a plain Adaptive/Burkard run bit-for-bit), then jumps by
   a large odd constant — distinct streams for the splitmix64-seeded
   generator, and a pure function of (base, k) so the portfolio is
   deterministic whatever the domain count. *)
let start_seed ~base k = base + (k * 0x9E3779B9)

(* Attempt [attempt] of start [k]: attempt 0 is the start's own seed
   (an unsupervised run is reproduced exactly), retries jump by a
   second large odd stride so a crashing trajectory is not replayed
   verbatim.  Pure in (base, start, attempt): a resumed run re-derives
   the same retry seeds. *)
let retry_seed ~base ~start ~attempt = start_seed ~base start + (attempt * 0x85EBCA6B)

let solve ?(config = Burkard.Config.default) ?(max_rounds = 4) ?(factor = 8.0) ?jobs
    ?(inner_jobs = 1) ?(starts = 1) ?(retries = 0) ?(skip = fun _ -> false) ?initial
    ?(should_stop = fun () -> false) ?(stall = (0, 0.0)) ?gap_solver ?on_improvement
    ?on_start_complete problem =
  if starts < 1 then invalid_arg "Portfolio.solve: starts must be >= 1";
  if retries < 0 then invalid_arg "Portfolio.solve: retries must be >= 0";
  if inner_jobs < 1 then invalid_arg "Portfolio.solve: inner_jobs must be >= 1";
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j ->
      if j < 1 then invalid_arg "Portfolio.solve: jobs must be >= 1";
      j
  in
  (* the box really runs at most (concurrent starts) x (inner pool)
     domains; warn on that product, not just the start-level count *)
  let total_domains = min jobs starts * inner_jobs in
  let recommended = default_jobs () in
  if total_domains > recommended && Atomic.exchange warned_oversubscribed total_domains <> total_domains
  then
    Printf.eprintf
      "qbpart: warning: %d domains (--jobs x --inner-jobs) exceed the recommended \
       domain count %d; oversubscribing slows every domain down (results are \
       unaffected)\n%!"
      total_domains recommended;
  let problem = Problem.normalize problem in
  let cons = problem.Problem.constraints in
  (* Force the lazily-built partner CSR before any domain spawns: it
     memoizes on first access, and that write is the one piece of
     shared state the otherwise read-only problem would mutate from
     several domains at once. *)
  if Problem.n problem > 0 && not (Constraints.empty cons) then Constraints.prebuild cons;
  (* Shared incumbent, for best-so-far reporting only: trajectories
     never read it, so starts stay independent and the reduction below
     stays deterministic. *)
  let lock = Mutex.create () in
  let inc_penalized = ref infinity in
  let inc_feasible = ref infinity in
  let report_improvement k (it : Burkard.iteration) =
    match on_improvement with
    | None -> ()
    | Some f ->
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          if it.Burkard.feasible && it.Burkard.objective < !inc_feasible then begin
            inc_feasible := it.Burkard.objective;
            f ~start:k ~cost:it.Burkard.objective ~feasible:true
          end
          else if it.Burkard.penalized < !inc_penalized then begin
            inc_penalized := it.Burkard.penalized;
            f ~start:k ~cost:it.Burkard.penalized ~feasible:false
          end)
  in
  let patience, epsilon = stall in
  let run_start k ~attempt =
    let t0 = Unix.gettimeofday () in
    let seed = retry_seed ~base:config.Burkard.Config.seed ~start:k ~attempt in
    let config = { config with Burkard.Config.seed } in
    (* per-start stall guard (same contract as the engine's) *)
    let local_best = ref infinity and since = ref 0 and stalled = ref false in
    let observe (it : Burkard.iteration) =
      (if patience > 0 then
         if it.Burkard.penalized < !local_best -. epsilon then begin
           local_best := it.Burkard.penalized;
           since := 0
         end
         else begin
           incr since;
           if !since >= patience then stalled := true
         end);
      report_improvement k it
    in
    let stop () = should_stop () || !stalled in
    (* the caller's warm start seeds start 0 only; the other starts are
       the portfolio's independent random restarts *)
    let initial = if k = 0 then initial else None in
    (* per-attempt scratch pool, created on the worker domain so the
       borrowed GAP buffers it feeds never cross domains; with
       [inner_jobs > 1] the attempt also owns a bounded domain pool
       that fans the intra-solve kernels (STEP 3's eta row refresh,
       race legs) — total domains stay within outer x inner, and the
       fan-out never changes a value, so the D7 determinism contract
       survives untouched *)
    let pool =
      if inner_jobs > 1 then Dompool.create ~domains:inner_jobs else Dompool.sequential
    in
    let r =
      Fun.protect
        ~finally:(fun () -> Dompool.shutdown pool)
        (fun () ->
          let workspace = Burkard.Workspace.create ~pool problem in
          Adaptive.solve ~config ~max_rounds ~factor ?initial ~should_stop:stop ~observe
            ?gap_solver ~workspace problem)
    in
    let report =
      {
        start = k;
        seed;
        attempts = attempt + 1;
        best_cost = r.Adaptive.last.Burkard.best_cost;
        feasible_cost = Option.map snd r.Adaptive.best_feasible;
        wall_seconds = Unix.gettimeofday () -. t0;
        stalled = !stalled;
        (* the Burkard flag conflates the external cancel with the
           local stall guard; a stalled start reached its own verdict
           and must not be reported as cut short (a checkpoint resume
           would pointlessly re-run it) *)
        interrupted = r.Adaptive.last.Burkard.interrupted && (should_stop () || not !stalled);
        failure = None;
      }
    in
    (report, r)
  in
  let completed report best_feasible =
    match on_start_complete with
    | None -> ()
    | Some f ->
      Mutex.lock lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> f report best_feasible)
  in
  (* Supervision: an attempt that raises is captured, never propagated
     out of its worker domain.  A start is retried with a re-derived
     seed until it succeeds, [retries] extra attempts are exhausted, or
     the caller cancels; only the final attempt's verdict is kept (the
     attempt count and last failure message go in the report). *)
  let run_supervised k =
    let t0 = Unix.gettimeofday () in
    let rec go attempt last_failure =
      if attempt > retries || (attempt > 0 && should_stop ()) then
        let attempts = attempt and failure = last_failure in
        ( {
            start = k;
            seed = retry_seed ~base:config.Burkard.Config.seed ~start:k ~attempt:(attempt - 1);
            attempts;
            best_cost = infinity;
            feasible_cost = None;
            wall_seconds = Unix.gettimeofday () -. t0;
            stalled = false;
            interrupted = should_stop ();
            failure;
          },
          None )
      else
        match run_start k ~attempt with
        | report, r -> ({ report with wall_seconds = Unix.gettimeofday () -. t0 }, Some r)
        | exception e -> go (attempt + 1) (Some (Printexc.to_string e))
    in
    go 0 None
  in
  let next = Atomic.make 0 in
  let results = Array.make starts None in
  let worker () =
    let continue = ref true in
    while !continue do
      let k = Atomic.fetch_and_add next 1 in
      if k >= starts then continue := false
      else if not (skip k) then begin
        let report, r = run_supervised k in
        results.(k) <- Some (report, r);
        completed report
          (Option.bind r (fun r ->
               Option.map (fun (a, c) -> (Assignment.copy a, c)) r.Adaptive.best_feasible))
      end
    done
  in
  (* work-stealing pool: the calling domain is worker 0, so jobs = 1
     spawns nothing and runs plain sequential code *)
  let helpers = Array.init (min jobs starts - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join helpers;
  (* the run as a whole fails only when every executed start exhausted
     its attempts — one surviving start is a valid (degraded) portfolio *)
  let failures = ref [] and survivors = ref 0 and executed = ref 0 in
  for k = starts - 1 downto 0 do
    match results.(k) with
    | None -> ()
    | Some (report, r) ->
      incr executed;
      (match (r, report.failure) with
      | Some _, _ -> incr survivors
      | None, Some msg -> failures := (k, msg) :: !failures
      | None, None -> incr survivors (* cancelled before its first attempt *))
  done;
  if !executed > 0 && !survivors = 0 && !failures <> [] then
    raise (All_starts_failed !failures);
  (* Deterministic seed-indexed reduction (DESIGN.md D7): scan starts
     in ascending index order and replace the champion only on strict
     improvement, so the winner is a function of the seeds alone —
     never of domain count or completion order. *)
  let best_feasible = ref None in
  let winner_feasible = ref None in
  let best = ref None in
  let best_cost = ref infinity in
  let winner_penalized = ref None in
  let interrupted = ref false in
  let reports = ref [] in
  for k = starts - 1 downto 0 do
    match results.(k) with
    | None -> ()
    | Some (report, r) -> (
      reports := report :: !reports;
      if report.interrupted then interrupted := true;
      match r with
      | None -> ()
      | Some r ->
        (* downto scan, so "replace on <=" implements "earliest strict
           winner" exactly like an ascending scan with < *)
        (match r.Adaptive.best_feasible with
        | Some (_, c)
          when (match !best_feasible with Some (_, c') -> c <= c' | None -> true) ->
          best_feasible := r.Adaptive.best_feasible;
          winner_feasible := Some report.start
        | _ -> ());
        let c = r.Adaptive.last.Burkard.best_cost in
        if c <= !best_cost then begin
          best_cost := c;
          best := Some r.Adaptive.last.Burkard.best;
          winner_penalized := Some report.start
        end)
  done;
  let winner =
    match !winner_feasible with Some _ as w -> w | None -> !winner_penalized
  in
  {
    best_feasible = !best_feasible;
    best = !best;
    best_cost = !best_cost;
    winner;
    reports = !reports;
    jobs;
    starts;
    interrupted = !interrupted;
  }
