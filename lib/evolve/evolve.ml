module Rng = Qbpart_netlist.Rng
module Assignment = Qbpart_partition.Assignment
module Problem = Qbpart_core.Problem
module Burkard = Qbpart_core.Burkard
module Adaptive = Qbpart_core.Adaptive
module Dompool = Qbpart_pool.Dompool

type start_report = {
  start : int;
  generation : int;
  seed : int;
  attempts : int;
  reseeded : bool;
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
        (Printf.sprintf "Evolve.All_starts_failed [%s]"
           (String.concat "; "
              (List.map (fun (k, msg) -> Printf.sprintf "start %d: %s" k msg) failures)))
    | _ -> None)

type result = {
  best_feasible : (Assignment.t * float) option;
  best : Assignment.t option;
  best_cost : float;
  winner : int option;
  reports : start_report list;
  elites : Epool.entry list;
  jobs : int;
  starts : int;
  generations : int;
  admitted : int;
  reseeded : int;
  interrupted : bool;
}

(* Computed once per process: the count the admission decision uses is
   the count the warning prints — recomputing at warn time could show a
   different number than the one actually compared against.  It is
   computed at start-up, not lazily: a daemon's first worker job and
   its first session open force it from two domains at once, and a
   lazy forced concurrently raises [CamlinternalLazy.Undefined]. *)
let recommended_jobs = max 1 (Domain.recommended_domain_count ())

let default_jobs () = recommended_jobs

(* Generation plan: later generations get a half-share each so that
   generation 0 — the independent-starts exploration phase — keeps the
   majority of the budget.  Total is exactly [starts]: equal budget
   with a one-generation run by construction.  Returns (generations,
   starts per later generation, starts of generation 0). *)
let plan ~starts ~generations =
  let gens = max 1 (min generations starts) in
  let later = if gens = 1 then 0 else max 1 (starts / (2 * gens)) in
  (gens, later, starts - ((gens - 1) * later))

(* The one core-sharing rule (DESIGN.md D28): [domains] shared among
   the starts generation 0, the widest batch, runs at once, and at most
   two per start.  MTHG forks two criterion legs, and the gain of a
   second domain was measured only on a two-core host; a larger pool
   would add helpers that spin idle after every two-chunk batch. *)
let auto_inner_jobs ~domains ~jobs ~starts ~generations =
  let _, _, gen0 = plan ~starts ~generations in
  max 1 (min 2 (domains / max 1 (min jobs gen0)))

(* Oversubscription warns once per distinct domain count: a sweep (or a
   property test) re-entering [solve] with the same explicit counts
   stays quiet across restarts, while a changed --jobs value earns a
   fresh warning.  0 = never warned. *)
let warned_oversubscribed = Atomic.make 0

(* Start k's seed: the base seed for k = 0 (so a 1-start run
   reproduces a plain Adaptive/Burkard run bit-for-bit), then jumps by
   a large odd constant — distinct streams for the splitmix64-seeded
   generator, and a pure function of (base, k) so the search is
   deterministic whatever the domain count. *)
let start_seed ~base k = base + (k * 0x9E3779B9)

(* Attempt [attempt] of start [k]: attempt 0 is the start's own seed
   (an unsupervised run is reproduced exactly), retries jump by a
   second large odd stride so a crashing trajectory is not replayed
   verbatim.  Pure in (base, start, attempt): a resumed run re-derives
   the same retry seeds. *)
let retry_seed ~base ~start ~attempt = start_seed ~base start + (attempt * 0x85EBCA6B)

(* Child-construction stream of start k: disjoint from the solve and
   retry streams so reseeding never perturbs a start's trajectory. *)
let child_seed ~base k = start_seed ~base k lxor 0x27D4EB2F

let solve ?(config = Burkard.Config.default) ?(max_rounds = 4) ?(factor = 8.0) ?jobs
    ?inner_jobs ?(starts = 1) ?(generations = 4) ?(pool_size = 8) ?min_distance
    ?(retries = 0) ?(skip = fun _ -> false) ?initial ?(should_stop = fun () -> false)
    ?(stall = (0, 0.0)) ?gap_solver ?on_start_complete problem =
  if starts < 1 then invalid_arg "Evolve.solve: starts must be >= 1";
  if generations < 1 then invalid_arg "Evolve.solve: generations must be >= 1";
  if pool_size < 1 then invalid_arg "Evolve.solve: pool_size must be >= 1";
  if retries < 0 then invalid_arg "Evolve.solve: retries must be >= 0";
  (match inner_jobs with
  | Some i when i < 1 -> invalid_arg "Evolve.solve: inner_jobs must be >= 1"
  | _ -> ());
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j ->
      if j < 1 then invalid_arg "Evolve.solve: jobs must be >= 1";
      j
  in
  let problem = Problem.normalize problem in
  let n = Problem.n problem and m = Problem.m problem in
  let min_distance =
    match min_distance with
    | None -> max 1 (n / 16)
    | Some d ->
      if d < 0 then invalid_arg "Evolve.solve: min_distance must be >= 0";
      d
  in
  let gens, later, gen0 = plan ~starts ~generations in
  (* the box really runs at most (concurrent starts) x (inner pool)
     domains, and generation 0 is the widest batch: the automatic
     inner count shares the [jobs] domains among its starts, and the
     warning is on that product, not just the start-level count *)
  let recommended = default_jobs () in
  let inner_jobs =
    match inner_jobs with
    | Some i -> i
    | None -> auto_inner_jobs ~domains:jobs ~jobs ~starts ~generations
  in
  let total_domains = min jobs gen0 * inner_jobs in
  if total_domains > recommended && Atomic.exchange warned_oversubscribed total_domains <> total_domains
  then
    Printf.eprintf
      "qbpart: warning: %d domains (--jobs x --inner-jobs) exceed the recommended \
       domain count %d; oversubscribing slows every domain down (results are \
       unaffected)\n%!"
      total_domains recommended;
  let gen_lo g = if g = 0 then 0 else gen0 + ((g - 1) * later) in
  let gen_hi g = if g = 0 then gen0 else gen0 + (g * later) in
  let pool = Epool.create ~capacity:pool_size ~min_distance ~m in
  let patience, epsilon = stall in
  let run_start k ~dpool ~attempt ~initial =
    let seed = retry_seed ~base:config.Burkard.Config.seed ~start:k ~attempt in
    let config = { config with Burkard.Config.seed } in
    let local_best = ref infinity and since = ref 0 and stalled = ref false in
    let observe (it : Burkard.iteration) =
      if patience > 0 then
        if it.Burkard.penalized < !local_best -. epsilon then begin
          local_best := it.Burkard.penalized;
          since := 0
        end
        else begin
          incr since;
          if !since >= patience then stalled := true
        end
    in
    let stop () = should_stop () || !stalled in
    (* per-attempt scratch pool, created on the worker domain so the
       borrowed GAP buffers it feeds never cross domains; [dpool] is
       the batch worker's inner domain pool, which runs MTHG's
       criterion legs side by side and fans STEP 3's row refresh — the
       fan-out never changes a value, so determinism survives
       untouched *)
    let workspace = Burkard.Workspace.create ~pool:dpool problem in
    let r =
      Adaptive.solve ~config ~max_rounds ~factor ?initial ~should_stop:stop ~observe
        ?gap_solver ~workspace problem
    in
    (seed, !stalled, r)
  in
  (* Start 0's first attempt always runs, so a run stopped before it
     began still has an answer; any other attempt that begins after the
     stop builds nothing and reports itself interrupted, with no result
     (none at all, [attempts = 0], for a start that never ran). *)
  let run_supervised k ~dpool ~generation ~initial ~reseeded =
    let t0 = Unix.gettimeofday () in
    let rec go attempt last_failure =
      if attempt > retries || ((attempt > 0 || k > 0) && should_stop ()) then
        ( {
            start = k;
            generation;
            seed =
              retry_seed ~base:config.Burkard.Config.seed ~start:k ~attempt:(max 0 (attempt - 1));
            attempts = attempt;
            reseeded;
            best_cost = infinity;
            feasible_cost = None;
            wall_seconds = Unix.gettimeofday () -. t0;
            stalled = false;
            interrupted = should_stop ();
            failure = last_failure;
          },
          None )
      else
        match run_start k ~dpool ~attempt ~initial with
        | seed, stalled, r ->
          ( {
              start = k;
              generation;
              seed;
              attempts = attempt + 1;
              reseeded;
              best_cost = r.Adaptive.last.Burkard.best_cost;
              feasible_cost = Option.map snd r.Adaptive.best_feasible;
              wall_seconds = Unix.gettimeofday () -. t0;
              stalled;
              (* the Burkard flag conflates the external cancel with the
                 local stall guard; a stalled start reached its own
                 verdict and must not be reported as cut short (a
                 checkpoint resume would pointlessly re-run it) *)
              interrupted =
                r.Adaptive.last.Burkard.interrupted && (should_stop () || not stalled);
              failure = None;
            },
            Some r )
        | exception e -> go (attempt + 1) (Some (Printexc.to_string e))
    in
    go 0 None
  in
  (* one start's completion at a time, whichever domain ran it *)
  let lock = Mutex.create () in
  let completed report best_feasible =
    match on_start_complete with
    | None -> ()
    | Some f ->
      Mutex.lock lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock lock) (fun () -> f report best_feasible)
  in
  let results = Array.make starts None in
  (* One generation = one batch on a work-stealing pool: the calling
     domain is worker 0 (so jobs = 1 spawns nothing and runs plain
     sequential code), helpers pull global start indices from an atomic
     counter.  A [skip]ped start runs nothing and leaves no result.
     Each worker takes an inner domain pool when it claims its first
     start, keeps it for every start and attempt it runs, and gives it
     back for the next batch or solve to reuse. *)
  let run_batch ~generation ~lo ~hi initials =
    let next = Atomic.make lo in
    let worker () =
      let dpool = lazy (Dompool.acquire ~domains:inner_jobs) in
      Fun.protect
        ~finally:(fun () -> if Lazy.is_val dpool then Dompool.release (Lazy.force dpool))
        (fun () ->
          let continue = ref true in
          while !continue do
            let k = Atomic.fetch_and_add next 1 in
            if k >= hi then continue := false
            else if not (skip k) then begin
              let initial, reseeded = initials.(k - lo) in
              let report, r =
                run_supervised k ~dpool:(Lazy.force dpool) ~generation ~initial ~reseeded
              in
              results.(k) <- Some (report, r);
              completed report
                (Option.bind r (fun r ->
                     Option.map (fun (a, c) -> (Assignment.copy a, c)) r.Adaptive.best_feasible))
            end
          done)
    in
    let helpers = Array.init (min jobs (hi - lo) - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join helpers
  in
  let admitted = ref 0 in
  (* Pool admission in ascending global start index: the pool state
     after a generation is a function of the generation's results
     alone, never of which domain finished first. *)
  let admit_batch ~lo ~hi =
    for k = lo to hi - 1 do
      match results.(k) with
      | Some (_, Some r) -> (
        match r.Adaptive.best_feasible with
        | Some (a, cost) -> (
          match Epool.admit pool a ~cost ~origin:k with
          | Epool.Rejected -> ()
          | Epool.Admitted | Epool.Replaced _ -> incr admitted)
        | None -> ())
      | _ -> ()
    done
  in
  (* Reseeding: every later-generation start is warm-started from a
     deterministic recombination of the current elites — crossover,
     path relinking and recursive-bipartition seeds in rotation, each
     repaired toward C1 ∧ C2 before use.  Children are built
     sequentially between batches from the (jobs-invariant) pool
     state, so the whole schedule is a function of the base seed. *)
  let build_child k =
    let rng = Rng.create (child_seed ~base:config.Burkard.Config.seed k) in
    let bipart () = Seeds.recursive_bipartition rng problem in
    let elites = Array.of_list (Epool.entries pool) in
    let child =
      if Array.length elites >= 2 then begin
        let i1 = Rng.int rng (Array.length elites) in
        let i2 =
          let r = Rng.int rng (Array.length elites - 1) in
          if r >= i1 then r + 1 else r
        in
        let p1 = elites.(min i1 i2).Epool.assignment in
        let p2 = elites.(max i1 i2).Epool.assignment in
        match k mod 3 with
        | 0 -> Operators.crossover rng ~m p1 p2
        | 1 -> (
          match Operators.path_relink problem ~source:p1 ~target:p2 with
          | Some (a, _) -> a
          | None -> Operators.crossover rng ~m p1 p2)
        | _ -> bipart ()
      end
      else
        match Epool.best pool with
        | Some e -> Operators.crossover rng ~m e.Epool.assignment (bipart ())
        | None -> bipart ()
    in
    ignore (Operators.repair problem child : bool);
    child
  in
  let reseeded = ref 0 in
  let stopped_early = ref false in
  for g = 0 to gens - 1 do
    (* generation 0 always runs, so every start of a cancelled
       one-generation run still reports (start 0 with an answer, the
       rest interrupted); later generations, whose children cost a
       repair each to build, are dropped instead *)
    if g > 0 && should_stop () then stopped_early := true
    else begin
      let lo = gen_lo g and hi = gen_hi g in
      let initials =
        if g = 0 then
          Array.init (hi - lo) (fun i -> if i = 0 then (initial, false) else (None, false))
        else
          Array.init (hi - lo) (fun i ->
              incr reseeded;
              (Some (build_child (lo + i)), true))
      in
      run_batch ~generation:g ~lo ~hi initials;
      admit_batch ~lo ~hi
    end
  done;
  let failures = ref [] and survivors = ref 0 and executed = ref 0 in
  for k = starts - 1 downto 0 do
    match results.(k) with
    | None -> ()
    | Some (report, r) ->
      incr executed;
      (match (r, report.failure) with
      | Some _, _ -> incr survivors
      | None, Some msg -> failures := (k, msg) :: !failures
      | None, None -> incr survivors)
  done;
  (* the run as a whole fails only when every executed start exhausted
     its attempts — one surviving start is a valid (degraded) run *)
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
  let interrupted = ref !stopped_early in
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
    elites = Epool.entries pool;
    jobs;
    starts;
    generations = gens;
    admitted = !admitted;
    reseeded = !reseeded;
    interrupted = !interrupted;
  }
