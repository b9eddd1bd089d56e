(* Portfolio and incremental-evaluation tests: the delta-evaluation
   invariant (DESIGN.md D7) checked against full recomputes on random
   move sequences, tracked-polish bookkeeping, the reused eta/GAP
   buffers, and the multi-start portfolio — the search driver's
   one-generation case — with its determinism across domain counts. *)

open Qbpart_core
module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Check = Qbpart_timing.Check
module Assignment = Qbpart_partition.Assignment
module Gap = Qbpart_gap.Gap
module Mthg = Qbpart_gap.Mthg
module Evolve = Qbpart_evolve.Evolve

let check = Alcotest.check
let fail = Alcotest.fail

(* A small-but-not-tiny instance: enough components and constraints
   that move deltas exercise wires, both constraint directions, and
   the P matrix at once. *)
let random_problem ?(with_p = true) seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 8 in
  let m = 4 in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires:(3 * n)) in
  let capacity = Netlist.total_size nl /. float_of_int m *. 1.5 in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity () in
  let cons = Constraints.Builder.create ~n in
  for _ = 1 to n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then Constraints.Builder.add cons j1 j2 (float_of_int (1 + Rng.int rng 2))
  done;
  let p =
    if with_p then Some (Array.init m (fun _ -> Array.init n (fun _ -> Rng.float rng 5.0)))
    else None
  in
  Problem.make ?p ~constraints:(Constraints.Builder.build cons) nl topo

(* ------------------------------------------------------------------ *)
(* Delta evaluation vs full recomputation on random move sequences.   *)

let prop_delta_matches_full =
  QCheck.Test.make ~name:"delta kernels match full recomputes on move sequences"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_problem seed in
      let q = Qmatrix.make ~penalty:50.0 problem in
      let problem = Qmatrix.problem q in
      let n = Problem.n problem and m = Problem.m problem in
      let cons = problem.Problem.constraints in
      let topo = problem.Problem.topology in
      let rng = Rng.create (seed + 1) in
      let u = Assignment.random rng ~n ~m in
      let ok = ref true in
      for _ = 1 to 30 do
        let j = Rng.int rng n and i = Rng.int rng m in
        let pen_before = Problem.penalized_objective problem ~penalty:50.0 u in
        let obj_before = Problem.objective problem u in
        let viol_before = Check.count cons topo ~assignment:u in
        let d_pen = Qmatrix.delta q u ~j ~i in
        let d_obj = Problem.delta_objective problem u ~j ~i in
        let d_viol = Qmatrix.violations_delta q u ~j ~i in
        u.(j) <- i;
        let pen_after = Problem.penalized_objective problem ~penalty:50.0 u in
        let obj_after = Problem.objective problem u in
        let viol_after = Check.count cons topo ~assignment:u in
        if Float.abs (pen_before +. d_pen -. pen_after) > 1e-6 then ok := false;
        if Float.abs (obj_before +. d_obj -. obj_after) > 1e-6 then ok := false;
        if viol_before + d_viol <> viol_after then ok := false
      done;
      !ok)

let prop_polish_tracked_consistent =
  QCheck.Test.make ~name:"polish_tracked deltas equal before/after recomputes"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_problem seed in
      let q = Qmatrix.make ~penalty:50.0 problem in
      let problem = Qmatrix.problem q in
      let n = Problem.n problem and m = Problem.m problem in
      let cons = problem.Problem.constraints in
      let topo = problem.Problem.topology in
      let u = Assignment.random (Rng.create (seed + 1)) ~n ~m in
      let twin = Assignment.copy u in
      let c0 = Problem.penalized_objective problem ~penalty:50.0 u in
      let v0 = Check.count cons topo ~assignment:u in
      let dc, dv = Repair.polish_tracked q u ~passes:5 in
      let c1 = Problem.penalized_objective problem ~penalty:50.0 u in
      let v1 = Check.count cons topo ~assignment:u in
      (* tracked bookkeeping is exact... *)
      Float.abs (c0 +. dc -. c1) < 1e-6
      && v0 + dv = v1
      (* ...and tracking never changes the descent itself *)
      &&
      (Repair.polish q twin ~passes:5;
       twin = u))

let prop_to_feasible_verdict_exact =
  QCheck.Test.make
    ~name:"to_feasible incremental verdict matches a full feasibility check" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_problem seed in
      let strict = Qmatrix.make ~penalty:1e12 problem in
      let problem = Qmatrix.problem strict in
      let n = Problem.n problem and m = Problem.m problem in
      let u = Assignment.random (Rng.create (seed + 1)) ~n ~m in
      let reached = Repair.to_feasible strict u ~rounds:4 in
      reached = Problem.timing_feasible problem u)

(* ------------------------------------------------------------------ *)
(* Reused buffers agree with their allocating counterparts.           *)

let prop_eta_into_matches_eta =
  QCheck.Test.make ~name:"eta_into equals eta for both rules" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_problem seed in
      let q = Qmatrix.make problem in
      let n = Problem.n (Qmatrix.problem q) and m = Problem.m (Qmatrix.problem q) in
      let u = Assignment.random (Rng.create (seed + 1)) ~n ~m in
      let buf = Array.make (Qmatrix.dim q) nan in
      List.for_all
        (fun rule ->
          let fresh = Qmatrix.eta ~rule q u in
          Qmatrix.eta_into ~rule q u buf;
          fresh = Array.sub buf 0 (Array.length fresh))
        [ Qmatrix.Solver; Qmatrix.Paper ])

let test_gap_borrow () =
  (* flat item-major: entry (i, j) at j*m + i *)
  let cost = [| 1.0; 3.0; 2.0; 4.0 |] in
  let weight = [| 1.0; 1.0; 1.0; 1.0 |] in
  let g = Gap.borrow ~cost ~weight ~capacity:[| 2.0; 2.0 |] ~n:2 in
  check Alcotest.int "m" 2 g.Gap.m;
  check Alcotest.int "n" 2 g.Gap.n;
  (* zero-copy: refreshing the caller's buffer is visible to the instance *)
  cost.(Gap.index g ~i:0 ~j:0) <- 9.0;
  check (Alcotest.float 0.0) "aliases caller cost" 9.0 (Gap.cost_at g ~i:0 ~j:0);
  (match Gap.borrow ~cost:[||] ~weight:[||] ~capacity:[||] ~n:0 with
  | _ -> fail "empty capacity accepted"
  | exception Invalid_argument _ -> ());
  match Gap.borrow ~cost ~weight:[| 1.0; 1.0 |] ~capacity:[| 1.0; 1.0 |] ~n:2 with
  | _ -> fail "length mismatch accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Portfolio determinism and reduction.                               *)

let portfolio_run ~jobs ~seed problem =
  let config = { Burkard.Config.default with iterations = 10; seed } in
  Evolve.solve ~config ~max_rounds:2 ~jobs ~starts:4 ~generations:1 problem

let prop_portfolio_jobs_invariant =
  QCheck.Test.make ~name:"portfolio: jobs=1 and jobs=4 are bit-identical" ~count:8
    QCheck.(pair (int_range 0 100_000) (int_range 1 1000))
    (fun (inst_seed, base_seed) ->
      let problem = random_problem ~with_p:false inst_seed in
      let r1 = portfolio_run ~jobs:1 ~seed:base_seed problem in
      let r4 = portfolio_run ~jobs:4 ~seed:base_seed problem in
      r1.Evolve.best_cost = r4.Evolve.best_cost
      && r1.Evolve.winner = r4.Evolve.winner
      && r1.Evolve.best = r4.Evolve.best
      && r1.Evolve.best_feasible = r4.Evolve.best_feasible
      && List.map (fun s -> (s.Evolve.start, s.Evolve.seed, s.Evolve.best_cost))
           r1.Evolve.reports
         = List.map (fun s -> (s.Evolve.start, s.Evolve.seed, s.Evolve.best_cost))
             r4.Evolve.reports)

let test_portfolio_single_start_matches_adaptive () =
  let problem = random_problem 42 in
  let config = { Burkard.Config.default with iterations = 15; seed = 7 } in
  let p = Evolve.solve ~config ~max_rounds:2 ~jobs:2 ~starts:1 ~generations:1 problem in
  let a = Adaptive.solve ~config ~max_rounds:2 problem in
  check (Alcotest.float 1e-12) "best_cost" a.Adaptive.last.Burkard.best_cost
    p.Evolve.best_cost;
  check Alcotest.bool "same best assignment" true
    (p.Evolve.best = Some a.Adaptive.last.Burkard.best);
  check Alcotest.bool "same feasible champion" true
    (Option.map snd p.Evolve.best_feasible = Option.map snd a.Adaptive.best_feasible)

let test_portfolio_reduction_rule () =
  (* ascending-index scan with strict improvement: start 0's champion
     wins any tie, and the winner index refers to the start that
     produced the returned assignment *)
  let problem = random_problem 11 in
  let r =
    Evolve.solve
      ~config:{ Burkard.Config.default with iterations = 10 }
      ~max_rounds:1 ~jobs:2 ~starts:5 ~generations:1 problem
  in
  check Alcotest.int "one report per start" 5 (List.length r.Evolve.reports);
  (match r.Evolve.winner with
  | None -> fail "no winner on a clean run"
  | Some w ->
    let candidates =
      List.filter_map
        (fun s ->
          match s.Evolve.feasible_cost with
          | Some c -> Some (s.Evolve.start, c)
          | None -> None)
        r.Evolve.reports
    in
    (match (r.Evolve.best_feasible, candidates) with
    | Some (_, c), _ :: _ ->
      let best = List.fold_left (fun acc (_, c) -> Float.min acc c) infinity candidates in
      check (Alcotest.float 1e-12) "champion cost is the min" best c;
      let earliest = List.find (fun (_, c) -> c = best) candidates in
      check Alcotest.int "earliest strict winner" (fst earliest) w
    | None, [] -> ()
    | _ -> fail "reports and champion disagree"));
  check Alcotest.int "jobs capped by starts" 2 r.Evolve.jobs

let test_portfolio_start_seeds () =
  check Alcotest.int "start 0 keeps the base seed" 123 (Evolve.start_seed ~base:123 0);
  let seeds = List.init 16 (Evolve.start_seed ~base:123) in
  let distinct = List.sort_uniq compare seeds in
  check Alcotest.int "16 distinct stream seeds" 16 (List.length distinct)

let test_portfolio_validation () =
  let problem = random_problem 3 in
  (match Evolve.solve ~starts:0 ~generations:1 problem with
  | _ -> fail "starts=0 accepted"
  | exception Invalid_argument _ -> ());
  match Evolve.solve ~jobs:0 ~starts:2 ~generations:1 problem with
  | _ -> fail "jobs=0 accepted"
  | exception Invalid_argument _ -> ()

let test_portfolio_should_stop () =
  let problem = random_problem 5 in
  let r =
    Evolve.solve
      ~config:{ Burkard.Config.default with iterations = 50 }
      ~jobs:2 ~starts:3 ~generations:1
      ~should_stop:(fun () -> true)
      problem
  in
  check Alcotest.bool "interrupted" true r.Evolve.interrupted;
  check Alcotest.int "still one report per start" 3 (List.length r.Evolve.reports)

(* A run stopped before it begins builds nothing for any start but
   start 0, which still runs so the run has an answer: a deadline
   cannot be overrun by the set-up of thousands of starts. *)
let test_stopped_run_starts_nothing () =
  let problem = random_problem 5 in
  let starts = 20_000 in
  let r =
    Evolve.solve ~jobs:1 ~starts ~generations:1 ~should_stop:(fun () -> true) problem
  in
  check Alcotest.int "one report per start" starts (List.length r.Evolve.reports);
  check Alcotest.bool "every start interrupted" true
    (List.for_all (fun (s : Evolve.start_report) -> s.Evolve.interrupted) r.Evolve.reports);
  check Alcotest.(list int) "only start 0 ran" [ 0 ]
    (List.filter_map
       (fun (s : Evolve.start_report) -> if s.Evolve.attempts > 0 then Some s.Evolve.start else None)
       r.Evolve.reports);
  check Alcotest.(option int) "start 0's answer" (Some 0) r.Evolve.winner

(* ------------------------------------------------------------------ *)
(* Supervision: injected failures are retried, recorded, and only a
   total wipe-out aborts the run.  All tests run [jobs = 1] because the
   injectors are stateful (the documented contract). *)

(* A GAP solver whose first [n] calls raise. *)
let flaky_gap n =
  let calls = Atomic.make 0 in
  fun ~step:_ ~k:_ ~default g ->
    if Atomic.fetch_and_add calls 1 < n then failwith "injected gap failure"
    else default g

let supervised ?(retries = 0) ?skip ~seed ~gap problem =
  Evolve.solve
    ~config:{ Burkard.Config.default with iterations = 10; seed }
    ~max_rounds:1 ~jobs:1 ~starts:3 ~generations:1 ~retries ?skip ~gap_solver:gap problem

let test_supervision_retry_succeeds () =
  let problem = random_problem 21 in
  let base = 77 in
  let r = supervised ~retries:1 ~seed:base ~gap:(flaky_gap 1) problem in
  check Alcotest.int "one report per start" 3 (List.length r.Evolve.reports);
  let s0 = List.find (fun s -> s.Evolve.start = 0) r.Evolve.reports in
  check Alcotest.int "start 0 consumed a retry" 2 s0.Evolve.attempts;
  check Alcotest.bool "start 0 recovered" true (s0.Evolve.failure = None);
  check Alcotest.int "retry seed re-derived deterministically"
    (Evolve.retry_seed ~base ~start:0 ~attempt:1)
    s0.Evolve.seed;
  List.iter
    (fun s ->
      if s.Evolve.start <> 0 then
        check Alcotest.int "untouched starts run once" 1 s.Evolve.attempts)
    r.Evolve.reports

let test_supervision_failure_recorded () =
  (* retries exhausted on start 0: the run continues, the report says so *)
  let problem = random_problem 22 in
  let r = supervised ~retries:0 ~seed:5 ~gap:(flaky_gap 1) problem in
  let s0 = List.find (fun s -> s.Evolve.start = 0) r.Evolve.reports in
  check Alcotest.bool "failure recorded" true (s0.Evolve.failure <> None);
  check Alcotest.int "single attempt" 1 s0.Evolve.attempts;
  check Alcotest.bool "failed start contributes no champion" true
    (s0.Evolve.feasible_cost = None);
  (match r.Evolve.winner with
  | Some w -> check Alcotest.bool "a surviving start wins" true (w <> 0)
  | None -> fail "survivors produced no champion")

let test_supervision_all_starts_failed () =
  let problem = random_problem 23 in
  let always_fail ~step:_ ~k:_ ~default:_ _ = failwith "injected gap failure" in
  match supervised ~retries:0 ~seed:5 ~gap:always_fail problem with
  | _ -> fail "total wipe-out returned a result"
  | exception Evolve.All_starts_failed failures ->
    check Alcotest.int "every start accounted for" 3 (List.length failures);
    check (Alcotest.list Alcotest.int) "ascending start order" [ 0; 1; 2 ]
      (List.map fst failures);
    List.iter
      (fun (_, msg) ->
        check Alcotest.bool "diagnosis captured" true
          (String.length msg > 0))
      failures

let test_supervision_deterministic () =
  let problem = random_problem 24 in
  let run () =
    let r = supervised ~retries:2 ~seed:9 ~gap:(flaky_gap 2) problem in
    ( r.Evolve.best_cost,
      r.Evolve.winner,
      List.map
        (fun s ->
          (s.Evolve.start, s.Evolve.seed, s.Evolve.attempts, s.Evolve.best_cost))
        r.Evolve.reports )
  in
  check Alcotest.bool "supervised runs are reproducible" true (run () = run ())

let test_supervision_skip () =
  let problem = random_problem 25 in
  let clean ~step:_ ~k:_ ~default g = default g in
  let r = supervised ~seed:5 ~skip:(fun k -> k = 1) ~gap:clean problem in
  check (Alcotest.list Alcotest.int) "skipped start produces no report" [ 0; 2 ]
    (List.sort compare (List.map (fun s -> s.Evolve.start) r.Evolve.reports));
  (* skipping everything is a no-op, not a failure — even with a
     poisoned GAP solver, nothing executes *)
  let always_fail ~step:_ ~k:_ ~default:_ _ = failwith "never reached" in
  let r = supervised ~seed:5 ~skip:(fun _ -> true) ~gap:always_fail problem in
  check Alcotest.int "no reports" 0 (List.length r.Evolve.reports);
  check Alcotest.bool "no champion" true (r.Evolve.best = None)

let test_retry_seed_derivation () =
  check Alcotest.int "attempt 0 is the start seed"
    (Evolve.start_seed ~base:123 5)
    (Evolve.retry_seed ~base:123 ~start:5 ~attempt:0);
  let seeds =
    List.concat_map
      (fun start -> List.init 4 (fun attempt -> Evolve.retry_seed ~base:123 ~start ~attempt))
      [ 0; 1; 2; 3 ]
  in
  check Alcotest.int "16 distinct attempt seeds" 16
    (List.length (List.sort_uniq compare seeds))

(* ------------------------------------------------------------------ *)
(* Gap borrow: domain ownership of the aliased buffers. *)

let test_gap_borrow_per_domain_isolated () =
  (* two domains, each borrowing its own scratch buffers, solving
     concurrently: both must succeed on their own data *)
  let solve_one bias =
    (* flat item-major diagonal-cheap instance *)
    let cost = [| bias; bias +. 3.0; bias +. 3.0; bias |] in
    let weight = [| 1.0; 1.0; 1.0; 1.0 |] in
    let g = Gap.borrow ~cost ~weight ~capacity:[| 2.0; 2.0 |] ~n:2 in
    Mthg.solve g
  in
  let d1 = Domain.spawn (fun () -> solve_one 1.0) in
  let d2 = Domain.spawn (fun () -> solve_one 100.0) in
  (match (Domain.join d1, Domain.join d2) with
  | Some a1, Some a2 ->
    (* the diagonal is cheapest in both instances, independent of bias:
       each domain solved its own buffers, not the other's *)
    check Alcotest.bool "domain 1 solved its instance" true (a1 = [| 0; 1 |] || a1 = [| 1; 0 |]);
    check Alcotest.bool "domain 2 solved its instance" true (a2 = [| 0; 1 |] || a2 = [| 1; 0 |])
  | _ -> fail "concurrent borrowed solves found no assignment")

let test_gap_borrow_cross_domain_rejected () =
  let cost = [| 1.0; 3.0; 2.0; 4.0 |] in
  let weight = [| 1.0; 1.0; 1.0; 1.0 |] in
  let g = Gap.borrow ~cost ~weight ~capacity:[| 2.0; 2.0 |] ~n:2 in
  (* the borrowing domain may solve freely *)
  (match Mthg.solve g with Some _ -> () | None -> fail "borrower failed to solve");
  let rejected =
    Domain.spawn (fun () ->
        match Mthg.solve g with
        | exception Invalid_argument _ -> true
        | _ -> false)
  in
  check Alcotest.bool "foreign domain rejected" true (Domain.join rejected);
  let rejected_relaxed =
    Domain.spawn (fun () ->
        match Mthg.solve_relaxed g with
        | exception Invalid_argument _ -> true
        | _ -> false)
  in
  check Alcotest.bool "relaxed path rejected too" true (Domain.join rejected_relaxed);
  (* owned copies carry no owner and travel freely *)
  let owned =
    Gap.make
      ~cost:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
      ~weight:[| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |]
      ~capacity:[| 2.0; 2.0 |]
  in
  let fine = Domain.spawn (fun () -> Mthg.solve owned <> None) in
  check Alcotest.bool "made instances cross domains" true (Domain.join fine)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "portfolio"
    [
      ( "delta",
        [
          qt prop_delta_matches_full;
          qt prop_polish_tracked_consistent;
          qt prop_to_feasible_verdict_exact;
        ] );
      ( "buffers",
        [
          qt prop_eta_into_matches_eta;
          Alcotest.test_case "gap borrow" `Quick test_gap_borrow;
        ] );
      ( "portfolio",
        [
          qt prop_portfolio_jobs_invariant;
          Alcotest.test_case "starts=1 matches adaptive" `Quick
            test_portfolio_single_start_matches_adaptive;
          Alcotest.test_case "reduction rule" `Quick test_portfolio_reduction_rule;
          Alcotest.test_case "start seeds" `Quick test_portfolio_start_seeds;
          Alcotest.test_case "validation" `Quick test_portfolio_validation;
          Alcotest.test_case "should_stop" `Quick test_portfolio_should_stop;
          Alcotest.test_case "stopped run starts nothing new" `Quick
            test_stopped_run_starts_nothing;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "retry succeeds" `Quick test_supervision_retry_succeeds;
          Alcotest.test_case "failure recorded" `Quick test_supervision_failure_recorded;
          Alcotest.test_case "all starts failed" `Quick test_supervision_all_starts_failed;
          Alcotest.test_case "deterministic" `Quick test_supervision_deterministic;
          Alcotest.test_case "skip" `Quick test_supervision_skip;
          Alcotest.test_case "retry seed derivation" `Quick test_retry_seed_derivation;
        ] );
      ( "domains",
        [
          Alcotest.test_case "borrowed buffers stay per-domain" `Quick
            test_gap_borrow_per_domain_isolated;
          Alcotest.test_case "cross-domain borrow rejected" `Quick
            test_gap_borrow_cross_domain_rejected;
        ] );
    ]
