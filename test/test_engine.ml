(* Engine tests: the deadline clock, cooperative interruption of every
   solver, the fault-injection suite proving the degradation ladder,
   input validation, degenerate instances and the anytime property. *)

module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Validate = Qbpart_partition.Validate
module Problem = Qbpart_core.Problem
module Burkard = Qbpart_core.Burkard
module Adaptive = Qbpart_core.Adaptive
module Certify = Qbpart_core.Certify
module Circuits = Qbpart_experiments.Circuits
module Synth = Qbpart_experiments.Synth
module Evolve = Qbpart_evolve.Evolve
module Deadline = Qbpart_engine.Deadline
module Signals = Qbpart_engine.Signals
module Engine = Qbpart_engine.Engine

let check = Alcotest.check
let fail = Alcotest.fail
let flt = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Deadline: all behaviour under an injected deterministic clock. *)

let fake_clock values =
  let remaining = ref values in
  fun () ->
    match !remaining with
    | [] -> fail "fake clock exhausted"
    | [ last ] -> last
    | x :: rest ->
      remaining := rest;
      x

let test_deadline_progression () =
  let d =
    Deadline.of_seconds ~clock:(fake_clock [ 100.0; 100.4; 100.9; 100.9; 101.1 ]) 1.0
  in
  check flt "budget" 1.0 (Deadline.budget d);
  check flt "elapsed" 0.4 (Deadline.elapsed d);
  check Alcotest.bool "not yet" false (Deadline.expired d);
  check flt "remaining" 0.1 (Deadline.remaining d);
  check Alcotest.bool "expired" true (Deadline.expired d);
  check flt "spent" 0.0 (Deadline.remaining d)

let test_deadline_backwards_clock () =
  (* NTP steps the clock back after 0.8s have elapsed: elapsed must not
     shrink and the deadline must not un-expire later on. *)
  let d = Deadline.of_seconds ~clock:(fake_clock [ 10.0; 10.8; 10.1; 10.2; 11.0 ]) 1.0 in
  check flt "elapsed high-water" 0.8 (Deadline.elapsed d);
  check flt "clamped" 0.8 (Deadline.elapsed d);
  check flt "still clamped" 0.8 (Deadline.elapsed d);
  check Alcotest.bool "expires on real progress" true (Deadline.expired d)

let test_deadline_backwards_never_reinflates () =
  (* The monotone clamp, end to end: once 1.0s of a 1.0s budget has
     been observed, a clock stepping backwards (even below the start
     time) must neither re-inflate [remaining] nor un-expire the
     deadline. *)
  let d =
    Deadline.of_seconds
      ~clock:(fake_clock [ 50.0; 51.0; 49.0; 40.0; 50.2; 50.9 ])
      1.0
  in
  check flt "budget consumed" 1.0 (Deadline.elapsed d);
  check Alcotest.bool "expired at the high-water mark" true (Deadline.expired d);
  (* clock now reads 49.0, 40.0, 50.2, 50.9 — all behind the mark *)
  check flt "remaining stays zero" 0.0 (Deadline.remaining d);
  check Alcotest.bool "never un-expires" true (Deadline.expired d);
  check flt "elapsed never shrinks" 1.0 (Deadline.elapsed d);
  check Alcotest.bool "still expired" true (Deadline.expired d)

let test_deadline_zero_and_infinite () =
  let z = Deadline.of_seconds ~clock:(fake_clock [ 0.0 ]) 0.0 in
  check Alcotest.bool "zero budget expired" true (Deadline.expired z);
  let inf = Deadline.of_seconds ~clock:(fake_clock [ 0.0; 1e12 ]) infinity in
  check Alcotest.bool "infinite never expires" false (Deadline.expired inf);
  check Alcotest.bool "infinite remaining" true (Deadline.remaining inf = infinity)

let test_deadline_cancel () =
  let d = Deadline.none () in
  check Alcotest.bool "unlimited live" false (Deadline.expired d);
  check Alcotest.bool "not cancelled" false (Deadline.cancelled d);
  Deadline.cancel d;
  check Alcotest.bool "cancelled" true (Deadline.cancelled d);
  check Alcotest.bool "cancel expires" true (Deadline.expired d);
  check flt "cancel zeroes remaining" 0.0 (Deadline.remaining d)

let test_deadline_invalid () =
  let invalid b =
    match Deadline.of_seconds b with
    | exception Invalid_argument _ -> ()
    | _ -> fail (Printf.sprintf "of_seconds %g accepted" b)
  in
  invalid (-1.0);
  invalid Float.nan

let test_deadline_should_stop () =
  let d = Deadline.of_seconds ~clock:(fake_clock [ 0.0; 0.5; 2.0 ]) 1.0 in
  let stop = Deadline.should_stop d in
  check Alcotest.bool "before" false (stop ());
  check Alcotest.bool "after" true (stop ())

(* Signals: two subscribers must compose — the second registration may
   not clobber the first (the bug this helper replaces: two direct
   [Sys.set_signal] installs, last writer wins). *)
let test_signals_compose () =
  let first = ref 0 and second = ref 0 in
  Signals.on_terminate (fun s -> if s = Sys.sigterm then incr first);
  Signals.on_terminate (fun s -> if s = Sys.sigterm then incr second);
  check Alcotest.bool "both registered" true (Signals.pending () >= 2);
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  (* the handler runs at an allocation safepoint; give it one *)
  let until = Unix.gettimeofday () +. 5.0 in
  while !second = 0 && Unix.gettimeofday () < until do
    ignore (Sys.opaque_identity (ref 0))
  done;
  check Alcotest.int "first subscriber saw the signal" 1 !first;
  check Alcotest.int "second subscriber saw the signal" 1 !second

(* ------------------------------------------------------------------ *)
(* Shared fixtures. *)

let small_instance = lazy (Circuits.scaled ~name:"eng60" ~n:60 ~seed:3)

let small_problem ?(with_timing = true) () =
  Circuits.problem ~with_timing (Lazy.force small_instance)

(* A configuration that keeps fault tests fast and makes the stall
   detector decisive. *)
let test_config =
  {
    Engine.Config.default with
    qbp = { Burkard.Config.default with iterations = 30; final_polish = 5 };
    max_rounds = 2;
    stall_patience = 5;
  }

let assert_ok = function
  | Ok o -> o
  | Error e -> fail (Printf.sprintf "engine error: %s" (Engine.Error.to_string e))

let assert_invariants problem (o : Engine.outcome) =
  let nl = problem.Problem.netlist and topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  (match Validate.check ~constraints:cons nl topo o.Engine.assignment with
  | [] -> ()
  | issue :: _ ->
    fail (Format.asprintf "engine returned infeasible: %a" Validate.pp_issue issue));
  let r = o.Engine.report in
  check Alcotest.bool "report records no issues" true (r.Engine.Report.issues = []);
  if o.Engine.cost > r.Engine.Report.initial_cost +. 1e-9 then
    fail
      (Printf.sprintf "worse than the safety net: %g > %g" o.Engine.cost
         r.Engine.Report.initial_cost);
  check flt "cost consistent with problem objective"
    (Problem.objective problem o.Engine.assignment)
    o.Engine.cost

let stage name (r : Engine.Report.t) =
  match List.find_opt (fun s -> s.Engine.Report.name = name) r.Engine.Report.stages with
  | Some s -> s
  | None -> fail (Printf.sprintf "no %S stage in the report" name)

(* ------------------------------------------------------------------ *)
(* The ladder on a healthy run. *)

let test_engine_clean_run () =
  let problem = small_problem () in
  let o = assert_ok (Engine.solve ~config:test_config problem) in
  assert_invariants problem o;
  let r = o.Engine.report in
  (match (stage "qbp" r).Engine.Report.outcome with
  | Engine.Report.Completed | Engine.Report.Stalled _ -> ()
  | other ->
    fail
      (Format.asprintf "clean run ended %a" Engine.Report.pp_stage_outcome other));
  (* a clean, productive QBP run must not trigger the ladder *)
  if (stage "qbp" r).Engine.Report.outcome = Engine.Report.Completed
     && r.Engine.Report.winner = "qbp"
  then check Alcotest.(list string) "no fallbacks" [] r.Engine.Report.fallbacks

let test_engine_improves_or_matches_initial () =
  let problem = small_problem () in
  let o = assert_ok (Engine.solve ~config:test_config problem) in
  let r = o.Engine.report in
  check Alcotest.bool "final <= initial" true
    (r.Engine.Report.final_cost <= r.Engine.Report.initial_cost)

(* A one-start solve runs MTHG's criterion legs and STEP 3 on its own
   domain pool: the legs fork at every STEP-4/6 call, the row refresh
   fans out when enough rows are invalid, and the answer must not move
   whatever the pool size, the automatic one (0) included. *)
let test_engine_single_start_inner_jobs () =
  let inst = Circuits.build (List.hd Circuits.table1) in
  let problem = Circuits.problem ~with_timing:true inst in
  (* a round's first refresh recomputes all n rows, and Repair fans
     it out from 128 invalid rows on *)
  check Alcotest.bool "past the fan-out cutoff" true (Problem.n problem >= 128);
  let same_for_every_inner_count ~config ~stage_name ?initial problem =
    let solve inner_jobs =
      let o = Engine.solve ~config:{ config with inner_jobs } ?initial problem |> assert_ok in
      check Alcotest.bool "certified" true (Certify.ok o.Engine.certificate);
      (o.Engine.assignment, o.Engine.cost, (stage stage_name o.Engine.report).Engine.Report.outcome)
    in
    let reference = solve 1 in
    List.iter
      (fun inner_jobs ->
        if solve inner_jobs <> reference then
          fail (Printf.sprintf "inner_jobs %d moved the %s answer" inner_jobs stage_name))
      [ 0; 2; 4 ]
  in
  same_for_every_inner_count ~config:test_config ~stage_name:"qbp" ~initial:inst.Circuits.reference
    problem;
  (* ckta on a 2x2 grid at slack 1.3 without timing, evolved from
     greedy starts as a served job is: most of MTHG's minima scans fit
     there and end the solve at once, so a forked solve scans before
     the fork after a scan that fitted and inside leg 0 after one that
     did not (DESIGN.md D35) *)
  let loose = Circuits.build ~rows:2 ~cols:2 ~capacity_slack:1.3 (List.hd Circuits.table1) in
  let evolve =
    {
      test_config with
      qbp = { test_config.Engine.Config.qbp with Burkard.Config.seed = 3 };
      starts = 3;
      generations = 3;
    }
  in
  same_for_every_inner_count ~config:evolve ~stage_name:"evolve"
    (Circuits.problem ~with_timing:false loose)

(* ------------------------------------------------------------------ *)
(* Fault injection: every fault, same contract. *)

let run_fault fault =
  let problem = small_problem () in
  let deadline = Deadline.none () in
  let o = assert_ok (Engine.solve ~config:test_config ~deadline ~fault problem) in
  assert_invariants problem o;
  o

let test_fault_raise () =
  let o = run_fault (Engine.Fault.Raise_at 3) in
  let r = o.Engine.report in
  (match (stage "qbp" r).Engine.Report.outcome with
  | Engine.Report.Crashed msg ->
    if not (String.length msg > 0) then fail "empty crash diagnosis"
  | other ->
    fail (Format.asprintf "expected a crash, got %a" Engine.Report.pp_stage_outcome other));
  check Alcotest.bool "gkl fallback ran" true
    (List.mem "gkl" r.Engine.Report.fallbacks)

let test_fault_raise_at_first_iteration () =
  let o = run_fault (Engine.Fault.Raise_at 1) in
  let r = o.Engine.report in
  (match (stage "qbp" r).Engine.Report.outcome with
  | Engine.Report.Crashed _ -> ()
  | other ->
    fail (Format.asprintf "expected a crash, got %a" Engine.Report.pp_stage_outcome other));
  check Alcotest.bool "fallbacks ran" true (r.Engine.Report.fallbacks <> [])

let test_fault_gap_overflow () =
  (* Every GAP answer piles everything into partition 0: QBP can no
     longer produce feasible iterates and either stalls or completes
     without a contribution; the fallbacks must still deliver. *)
  let o = run_fault (Engine.Fault.Gap_overflow 1) in
  let r = o.Engine.report in
  match (stage "qbp" r).Engine.Report.outcome with
  | Engine.Report.Completed -> ()
  | Engine.Report.Stalled _ | Engine.Report.Timed_out | Engine.Report.Crashed _ ->
    check Alcotest.bool "ladder descended" true (r.Engine.Report.fallbacks <> [])
  | Engine.Report.Skipped why -> fail ("qbp skipped: " ^ why)

let test_fault_gap_freeze () =
  (* The frozen STEP-6 answer flatlines the objective: the stall guard
     must fire rather than the solver spinning its full budget. *)
  let o = run_fault (Engine.Fault.Gap_freeze 2) in
  let r = o.Engine.report in
  (match (stage "qbp" r).Engine.Report.outcome with
  | Engine.Report.Stalled k ->
    check Alcotest.bool "stall count at patience" true (k >= test_config.Engine.Config.stall_patience)
  | Engine.Report.Completed ->
    (* acceptable only if the budget was tiny enough to finish before
       the patience ran out — with 30 iterations and patience 5 it is
       not *)
    fail "stall guard never fired on a frozen objective"
  | other ->
    fail (Format.asprintf "expected a stall, got %a" Engine.Report.pp_stage_outcome other))

let test_fault_expire_mid_step6 () =
  let problem = small_problem () in
  let deadline = Deadline.none () in
  let o =
    assert_ok
      (Engine.solve ~config:test_config ~deadline ~fault:(Engine.Fault.Expire_mid_step6 2)
         problem)
  in
  assert_invariants problem o;
  let r = o.Engine.report in
  (match (stage "qbp" r).Engine.Report.outcome with
  | Engine.Report.Timed_out -> ()
  | other ->
    fail
      (Format.asprintf "expected mid-step timeout, got %a" Engine.Report.pp_stage_outcome
         other));
  check Alcotest.bool "deadline reported expired" true r.Engine.Report.deadline_expired;
  (* the budget is gone, so the fallbacks may only be skipped *)
  List.iter
    (fun name ->
      match (stage name r).Engine.Report.outcome with
      | Engine.Report.Skipped _ -> ()
      | other ->
        fail
          (Format.asprintf "%s should be skipped after expiry, got %a" name
             Engine.Report.pp_stage_outcome other))
    [ "gkl"; "gfm" ]

(* ------------------------------------------------------------------ *)
(* Deadlines end-to-end. *)

let test_engine_expired_deadline_returns_initial () =
  let problem = small_problem () in
  let d = Deadline.of_seconds 0.0 in
  let o = assert_ok (Engine.solve ~config:test_config ~deadline:d problem) in
  assert_invariants problem o;
  let r = o.Engine.report in
  check Alcotest.string "initial wins" "initial" r.Engine.Report.winner;
  List.iter
    (fun name ->
      match (stage name r).Engine.Report.outcome with
      | Engine.Report.Skipped _ -> ()
      | other ->
        fail
          (Format.asprintf "%s ran on an expired deadline: %a" name
             Engine.Report.pp_stage_outcome other))
    [ "qbp"; "gkl"; "gfm" ]

let test_engine_deadline_honored () =
  (* The acceptance bar: a Table-I-scale 16-partition solve under a
     1-second budget returns within 1.5x of it. *)
  let inst = Circuits.build (List.hd Circuits.table1) in
  let problem = Circuits.problem ~with_timing:true inst in
  let t0 = Unix.gettimeofday () in
  let o =
    Engine.solve ~deadline:(Deadline.of_seconds 1.0) ~initial:inst.Circuits.reference
      problem
    |> assert_ok
  in
  let wall = Unix.gettimeofday () -. t0 in
  assert_invariants problem o;
  if wall > 1.5 then fail (Printf.sprintf "1.0s budget took %.2fs" wall)

(* ------------------------------------------------------------------ *)
(* Anytime property, deterministically: interrupt Burkard after a fixed
   number of completed iterations instead of after wall time.  The
   best-so-far of a longer run extends the shorter run's, so its cost
   can only be lower or equal. *)

let burkard_best_after problem k =
  let count = ref 0 in
  let result =
    Burkard.solve
      ~config:{ Burkard.Config.default with iterations = 40; final_polish = 0 }
      ~initial:(Assignment.make ~n:(Problem.n problem) 0)
      ~should_stop:(fun () -> !count >= k)
      ~observe:(fun _ -> incr count)
      problem
  in
  (result.Burkard.best_cost, result.Burkard.interrupted)

let prop_burkard_anytime_monotone =
  QCheck.Test.make ~name:"burkard: longer iteration budget never worse" ~count:15
    QCheck.(pair (int_range 1 12) (int_range 0 12))
    (fun (k1, extra) ->
      let problem = small_problem ~with_timing:false () in
      let short, interrupted = burkard_best_after problem k1 in
      let long, _ = burkard_best_after problem (k1 + extra) in
      interrupted && long <= short +. 1e-9)

let prop_engine_deadline_zero_vs_unlimited =
  QCheck.Test.make ~name:"engine: unlimited budget never worse than none" ~count:5
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let inst = Circuits.scaled ~name:"any" ~n:40 ~seed in
      let problem = Circuits.problem ~with_timing:true inst in
      let config =
        { test_config with qbp = { test_config.Engine.Config.qbp with iterations = 15 } }
      in
      match
        ( Engine.solve ~config ~deadline:(Deadline.of_seconds 0.0) problem,
          Engine.solve ~config problem )
      with
      | Ok zero, Ok unlimited -> unlimited.Engine.cost <= zero.Engine.cost +. 1e-9
      | Error (Engine.Error.No_feasible_start _), Error (Engine.Error.No_feasible_start _)
        ->
        (* a small fraction of random instances genuinely have no
           constructible feasible start; the anytime property is
           vacuous there, but both budgets must agree on the diagnosis *)
        true
      | Ok _, Error e | Error e, Ok _ | Error _, Error e ->
        QCheck.Test.fail_reportf "engine budgets disagree: %s" (Engine.Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Interruption of the individual solvers. *)

let test_solvers_stop_immediately () =
  let problem = small_problem () in
  let nl = problem.Problem.netlist and topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  let initial =
    match Engine.greedy_start ~constraints:cons nl topo with
    | Ok a -> a
    | Error e -> fail (Engine.Error.to_string e)
  in
  let stop () = true in
  let b = Burkard.solve ~initial ~should_stop:stop problem in
  check Alcotest.bool "burkard interrupted" true b.Burkard.interrupted;
  check Alcotest.int "burkard did no iterations" 0 (List.length b.Burkard.history);
  let gfm = Qbpart_baselines.Gfm.solve ~constraints:cons ~should_stop:stop nl topo ~initial in
  check Alcotest.bool "gfm interrupted" true gfm.Qbpart_baselines.Gfm.interrupted;
  check Alcotest.bool "gfm returned feasible" true
    (Validate.check ~constraints:cons nl topo gfm.Qbpart_baselines.Gfm.assignment = []);
  let gkl = Qbpart_baselines.Gkl.solve ~constraints:cons ~should_stop:stop nl topo ~initial in
  check Alcotest.bool "gkl interrupted" true gkl.Qbpart_baselines.Gkl.interrupted;
  check Alcotest.bool "gkl returned feasible" true
    (Validate.check ~constraints:cons nl topo gkl.Qbpart_baselines.Gkl.assignment = []);
  let a = Adaptive.solve ~initial ~should_stop:stop problem in
  check Alcotest.bool "adaptive interrupted" true a.Adaptive.last.Burkard.interrupted

(* ------------------------------------------------------------------ *)
(* Input validation. *)

let test_engine_invalid_config () =
  let problem = small_problem () in
  let expect_field field config =
    match Engine.solve ~config problem with
    | Error (Engine.Error.Invalid_config { field = f; _ }) ->
      check Alcotest.string "field" field f
    | Error e -> fail (Printf.sprintf "wrong error: %s" (Engine.Error.to_string e))
    | Ok _ -> fail (Printf.sprintf "invalid %s accepted" field)
  in
  expect_field "qbp.iterations"
    {
      test_config with
      qbp = { test_config.Engine.Config.qbp with Burkard.Config.iterations = -1 };
    };
  expect_field "qbp.penalty"
    {
      test_config with
      qbp = { test_config.Engine.Config.qbp with Burkard.Config.penalty = 0.0 };
    };
  expect_field "max_rounds" { test_config with max_rounds = 0 };
  expect_field "penalty_factor" { test_config with penalty_factor = 1.0 };
  expect_field "stall_epsilon" { test_config with stall_epsilon = Float.nan };
  expect_field "start_attempts" { test_config with start_attempts = 0 }

let test_engine_invalid_initial () =
  let problem = small_problem () in
  let n = Problem.n problem in
  (match Engine.solve ~initial:(Array.make (n + 3) 0) problem with
  | Error (Engine.Error.Invalid_initial { expected_length; length; _ }) ->
    check Alcotest.int "expected" n expected_length;
    check Alcotest.int "got" (n + 3) length
  | Error e -> fail (Engine.Error.to_string e)
  | Ok _ -> fail "wrong-length initial accepted");
  let out_of_range = Array.make n 0 in
  out_of_range.(1) <- Problem.m problem + 5;
  match Engine.solve ~initial:out_of_range problem with
  | Error (Engine.Error.Invalid_initial { issues; _ }) ->
    check Alcotest.bool "range issue diagnosed" true
      (List.exists (function Validate.Out_of_range _ -> true | _ -> false) issues)
  | Error e -> fail (Engine.Error.to_string e)
  | Ok _ -> fail "out-of-range initial accepted"

let test_engine_infeasible_initial_is_warm_start () =
  (* In-range but capacity-violating: not an error, just a seed. *)
  let problem = small_problem () in
  let all_in_zero = Assignment.make ~n:(Problem.n problem) 0 in
  let o = assert_ok (Engine.solve ~config:test_config ~initial:all_in_zero problem) in
  assert_invariants problem o

(* ------------------------------------------------------------------ *)
(* Degenerate instances. *)

let empty_netlist () = Netlist.Builder.build (Netlist.Builder.create ())

let test_degenerate_empty_netlist () =
  let nl = empty_netlist () in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity:1.0 () in
  let problem = Problem.make nl topo in
  let o = assert_ok (Engine.solve problem) in
  check Alcotest.int "empty assignment" 0 (Array.length o.Engine.assignment);
  check flt "zero cost" 0.0 o.Engine.cost;
  let b = Burkard.solve problem in
  (match b.Burkard.best_feasible with
  | Some (a, c) ->
    check Alcotest.int "burkard empty" 0 (Array.length a);
    check flt "burkard zero cost" 0.0 c
  | None -> fail "burkard found no feasible empty assignment");
  match Engine.greedy_start nl topo with
  | Ok [||] -> ()
  | Ok _ -> fail "non-empty start for an empty netlist"
  | Error e -> fail (Engine.Error.to_string e)

let test_degenerate_single_partition () =
  let inst = Circuits.scaled ~name:"m1" ~n:12 ~seed:5 in
  let nl = inst.Circuits.netlist in
  let topo =
    Grid.make ~rows:1 ~cols:1 ~capacity:(Netlist.total_size nl *. 1.01) ()
  in
  let problem = Problem.make nl topo in
  let o = assert_ok (Engine.solve ~config:test_config problem) in
  Array.iter (fun i -> check Alcotest.int "everything in p0" 0 i) o.Engine.assignment;
  check flt "single partition has no cut cost" 0.0 o.Engine.cost

let test_degenerate_zero_capacity () =
  let inst = Circuits.scaled ~name:"zc" ~n:10 ~seed:5 in
  let nl = inst.Circuits.netlist in
  let topo =
    Topology.make ~capacities:[| 0.0; 0.0 |]
      ~b:[| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |]
      ~d:[| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |]
      ()
  in
  let problem = Problem.make nl topo in
  (match Engine.solve ~config:test_config problem with
  | Error (Engine.Error.No_feasible_start { issues; _ }) ->
    check Alcotest.bool "capacity diagnosed" true
      (List.exists (function Validate.Capacity _ -> true | _ -> false) issues)
  | Error e -> fail (Printf.sprintf "wrong diagnosis: %s" (Engine.Error.to_string e))
  | Ok _ -> fail "zero-capacity instance declared solvable");
  match Engine.greedy_start nl topo with
  | Error (Engine.Error.No_feasible_start _) -> ()
  | Error e -> fail (Engine.Error.to_string e)
  | Ok _ -> fail "greedy_start packed into zero capacity"

let test_degenerate_no_partitions () =
  (* the topology type itself forbids M = 0, so the engine's
     No_partitions diagnosis is defence in depth behind this
     invariant — the rejection is the defined behaviour under test *)
  match Topology.make ~capacities:[||] ~b:[||] ~d:[||] () with
  | exception Invalid_argument _ -> ()
  | _ -> fail "M = 0 topology constructed"

let test_degenerate_zero_iterations () =
  let problem = small_problem () in
  let config =
    {
      test_config with
      qbp = { test_config.Engine.Config.qbp with Burkard.Config.iterations = 0 };
    }
  in
  let o = assert_ok (Engine.solve ~config problem) in
  assert_invariants problem o;
  let b =
    Burkard.solve
      ~config:{ Burkard.Config.default with iterations = 0 }
      ~initial:(Assignment.make ~n:(Problem.n problem) 0)
      problem
  in
  check Alcotest.int "no iterations" 0 (List.length b.Burkard.history);
  let a =
    Adaptive.solve
      ~config:{ Burkard.Config.default with iterations = 0 }
      ~initial:(Assignment.make ~n:(Problem.n problem) 0)
      problem
  in
  check Alcotest.int "adaptive no iterations" 0
    (List.length a.Adaptive.last.Burkard.history)

(* ------------------------------------------------------------------ *)
(* Pinned answers.  The solver's speed-ups are exact (DESIGN.md D14,
   D16, D22, D23), so a change that moves a float anywhere in an
   iteration shows here: a 1k-component synthetic instance, warm from
   its planted reference, solved three ways, each answer certified and
   pinned by its objective and a digest of the assignment. *)

let synth1k =
  lazy
    (let inst = Synth.build (Synth.default ~name:"synth1k" ~n:1_000 ~seed:7) in
     (inst, Circuits.problem ~with_timing:true inst))

let pin_config = { Engine.Config.default with qbp = { Burkard.Config.default with iterations = 8 } }

let digest a =
  Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int (Array.to_list a))))

let check_pin what problem (objective, hex) a =
  let cert = Certify.check problem a in
  check Alcotest.bool (what ^ " certified") true (Certify.ok cert);
  check (Alcotest.float 0.0) (what ^ " objective") objective cert.Certify.objective;
  check Alcotest.string (what ^ " assignment digest") hex (digest a)

let test_pinned_engine () =
  let inst, problem = Lazy.force synth1k in
  let o = Engine.solve ~config:pin_config ~initial:inst.Circuits.reference problem |> assert_ok in
  check_pin "engine" problem (3398.0, "d0161b1780e5a1242e277e20f0fdeae8") o.Engine.assignment

let test_pinned_bare () =
  let inst, problem = Lazy.force synth1k in
  let r =
    Evolve.solve ~config:pin_config.Engine.Config.qbp ~max_rounds:1 ~generations:1 ~jobs:1
      ~starts:1 ~initial:inst.Circuits.reference problem
  in
  match r.Evolve.best_feasible with
  | None -> fail "bare path found no feasible answer"
  | Some (a, _) -> check_pin "bare" problem (3525.0, "6abfa6eccb0f95c33471de56bc9667c5") a

let test_pinned_evolve () =
  let inst, problem = Lazy.force synth1k in
  let config = { pin_config with Engine.Config.starts = 2; generations = 2; jobs = Some 1 } in
  let o = Engine.solve ~config ~initial:inst.Circuits.reference problem |> assert_ok in
  check_pin "evolve" problem (3389.0, "67be2e9981d2ad3efe7a252530517dc6") o.Engine.assignment

(* The same instance with every wire weight raised by 0.25: its
   surfaces are not exact (DESIGN.md D25), so every row cache
   invalidates and recomputes the rows a move touches, and this pin
   keeps that path under an end-to-end answer. *)
let test_pinned_fractional () =
  let inst, _ = Lazy.force synth1k in
  let nl =
    Reweight.netlist inst.Circuits.netlist (fun w -> Qbpart_netlist.Wire.weight w +. 0.25)
  in
  let problem =
    Problem.make ~constraints:inst.Circuits.constraints nl inst.Circuits.topology
  in
  check Alcotest.bool "surface not exact" false
    (Qbpart_core.Qmatrix.exact (Qbpart_core.Qmatrix.make problem));
  let o = Engine.solve ~config:pin_config ~initial:inst.Circuits.reference problem |> assert_ok in
  check_pin "fractional weights" problem (4193.75, "be533a440672812df90da19d1a5a1b53") o.Engine.assignment

(* ------------------------------------------------------------------ *)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "deadline",
        [
          Alcotest.test_case "progression" `Quick test_deadline_progression;
          Alcotest.test_case "backwards clock" `Quick test_deadline_backwards_clock;
          Alcotest.test_case "backwards clock never re-inflates" `Quick
            test_deadline_backwards_never_reinflates;
          Alcotest.test_case "zero and infinite" `Quick test_deadline_zero_and_infinite;
          Alcotest.test_case "cancel" `Quick test_deadline_cancel;
          Alcotest.test_case "invalid budgets" `Quick test_deadline_invalid;
          Alcotest.test_case "should_stop" `Quick test_deadline_should_stop;
        ] );
      ( "signals",
        [ Alcotest.test_case "subscribers compose" `Quick test_signals_compose ] );
      ( "ladder",
        [
          Alcotest.test_case "clean run" `Quick test_engine_clean_run;
          Alcotest.test_case "one start honours inner_jobs" `Quick
            test_engine_single_start_inner_jobs;
          Alcotest.test_case "never worse than initial" `Quick
            test_engine_improves_or_matches_initial;
          Alcotest.test_case "expired deadline returns initial" `Quick
            test_engine_expired_deadline_returns_initial;
          Alcotest.test_case "deadline honored (1s on ckta)" `Slow
            test_engine_deadline_honored;
        ] );
      ( "faults",
        [
          Alcotest.test_case "raise at iteration 3" `Quick test_fault_raise;
          Alcotest.test_case "raise at iteration 1" `Quick test_fault_raise_at_first_iteration;
          Alcotest.test_case "gap overflow" `Quick test_fault_gap_overflow;
          Alcotest.test_case "gap freeze stalls" `Quick test_fault_gap_freeze;
          Alcotest.test_case "expire mid step 6" `Quick test_fault_expire_mid_step6;
        ] );
      ( "interruption",
        [ Alcotest.test_case "all solvers stop immediately" `Quick test_solvers_stop_immediately ] );
      ( "validation",
        [
          Alcotest.test_case "invalid config" `Quick test_engine_invalid_config;
          Alcotest.test_case "invalid initial" `Quick test_engine_invalid_initial;
          Alcotest.test_case "infeasible initial is a warm start" `Quick
            test_engine_infeasible_initial_is_warm_start;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "empty netlist" `Quick test_degenerate_empty_netlist;
          Alcotest.test_case "single partition" `Quick test_degenerate_single_partition;
          Alcotest.test_case "zero capacity" `Quick test_degenerate_zero_capacity;
          Alcotest.test_case "no partitions" `Quick test_degenerate_no_partitions;
          Alcotest.test_case "zero iterations" `Quick test_degenerate_zero_iterations;
        ] );
      ( "anytime",
        [ q prop_burkard_anytime_monotone; q prop_engine_deadline_zero_vs_unlimited ] );
      ( "answers",
        [
          Alcotest.test_case "synth 1k pinned: Engine.solve" `Quick test_pinned_engine;
          Alcotest.test_case "synth 1k pinned: bare Evolve" `Quick test_pinned_bare;
          Alcotest.test_case "synth 1k pinned: evolve 2x2" `Quick test_pinned_evolve;
          Alcotest.test_case "synth 1k pinned: fractional weights" `Quick
            test_pinned_fractional;
        ] );
    ]
