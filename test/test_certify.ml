(* Independent certification tests: the scratch audit on handcrafted
   violations, bit-for-bit agreement with honest solver reports, and
   the engine's crash-safety contract (corrupt incumbents demoted to
   structured errors, flaky starts retried to a certified answer,
   checkpoint emission and resume). *)

module Netlist = Qbpart_netlist.Netlist
module Grid = Qbpart_topology.Grid
module Constraints = Qbpart_timing.Constraints
module Validate = Qbpart_partition.Validate
module Problem = Qbpart_core.Problem
module Burkard = Qbpart_core.Burkard
module Certify = Qbpart_core.Certify
module Circuits = Qbpart_experiments.Circuits
module Deadline = Qbpart_engine.Deadline
module Checkpoint = Qbpart_engine.Checkpoint
module Engine = Qbpart_engine.Engine

let check = Alcotest.check
let fail = Alcotest.fail
let flt = Alcotest.float 1e-12

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

(* Two unit-size components on a 1×2 grid (inter-partition delay 1):
   with capacity 1.5 they cannot share a partition, and with a timing
   budget below 1 they cannot be apart either — each violation is
   reachable by construction. *)
let tiny ?(budget = 0.5) () =
  let b = Netlist.Builder.create () in
  let c0 = Netlist.Builder.add_component b ~size:1.0 () in
  let c1 = Netlist.Builder.add_component b ~size:1.0 () in
  Netlist.Builder.add_wire b c0 c1 ~weight:2.0 ();
  let nl = Netlist.Builder.build b in
  let topo = Grid.make ~rows:1 ~cols:2 ~capacity:1.5 () in
  let cons = Constraints.Builder.create ~n:2 in
  Constraints.Builder.add cons c0 c1 budget;
  Problem.make ~constraints:(Constraints.Builder.build cons) nl topo

let test_feasible_certificate () =
  let problem = tiny ~budget:2.0 () in
  let a = [| 0; 1 |] in
  let objective = Problem.objective problem a in
  let c = Certify.check ~claimed:objective problem a in
  check Alcotest.bool "ok" true (Certify.ok c);
  check Alcotest.bool "in range" true c.Certify.in_range;
  check Alcotest.bool "C1" true c.Certify.capacity_ok;
  check Alcotest.bool "C2" true c.Certify.timing_ok;
  check Alcotest.bool "theorem 2" true c.Certify.theorem2_ok;
  check flt "scratch objective matches" objective c.Certify.objective;
  check flt "no drift on an honest claim" 0.0 c.Certify.drift;
  check flt "slack = budget - delay" 1.0 c.Certify.worst_slack;
  check (Alcotest.array flt) "loads" [| 1.0; 1.0 |] c.Certify.loads;
  let json = Certify.to_json_string c in
  List.iter
    (fun needle ->
      if not (contains json needle) then
        fail (Printf.sprintf "JSON missing %S in %s" needle json))
    [ "\"schema\": \"qbpart-certificate/1\""; "\"ok\": true"; "\"issues\": 0" ]

let test_capacity_violation () =
  let problem = tiny () in
  let c = Certify.check problem [| 0; 0 |] in
  check Alcotest.bool "not ok" false (Certify.ok c);
  check Alcotest.bool "C1 fails" false c.Certify.capacity_ok;
  check Alcotest.bool "C2 holds (delay 0)" true c.Certify.timing_ok;
  check Alcotest.bool "capacity issue diagnosed" true
    (List.exists (function Validate.Capacity _ -> true | _ -> false) c.Certify.issues);
  check (Alcotest.array flt) "loads show the overflow" [| 2.0; 0.0 |] c.Certify.loads

let test_timing_violation () =
  let problem = tiny ~budget:0.5 () in
  let c = Certify.check problem [| 0; 1 |] in
  check Alcotest.bool "not ok" false (Certify.ok c);
  check Alcotest.bool "C1 holds" true c.Certify.capacity_ok;
  check Alcotest.bool "C2 fails" false c.Certify.timing_ok;
  check flt "negative slack" (-0.5) c.Certify.worst_slack;
  check Alcotest.bool "timing issue diagnosed" true
    (List.exists (function Validate.Timing _ -> true | _ -> false) c.Certify.issues)

let test_out_of_range () =
  let problem = tiny () in
  let c = Certify.check problem [| 0; 7 |] in
  check Alcotest.bool "not ok" false (Certify.ok c);
  check Alcotest.bool "out of range" false c.Certify.in_range;
  check Alcotest.bool "objective is nan" true (Float.is_nan c.Certify.objective);
  check Alcotest.int "no loads computed" 0 (Array.length c.Certify.loads);
  let c = Certify.check problem [| 0 |] in
  check Alcotest.bool "wrong length rejected" false c.Certify.in_range

let test_drift_detected () =
  let problem = tiny ~budget:2.0 () in
  let a = [| 0; 1 |] in
  let objective = Problem.objective problem a in
  let c = Certify.check ~claimed:(objective +. 1.0) problem a in
  check Alcotest.bool "drifted claim rejected" false (Certify.ok c);
  check flt "drift measured" 1.0 c.Certify.drift;
  let rendered = Format.asprintf "%a" Certify.pp c in
  if not (contains rendered "drift") then fail ("pp does not mention drift: " ^ rendered);
  (* within tolerance: formatting-level wobble is forgiven *)
  let c = Certify.check ~claimed:(objective +. (1e-8 *. Float.max 1.0 objective)) problem a in
  check Alcotest.bool "tiny wobble forgiven" true (Certify.ok c)

(* ------------------------------------------------------------------ *)
(* Engine integration: every Ok outcome is certified; corruption and
   flakiness surface exactly as ISSUE'd. *)

let small_instance = lazy (Circuits.scaled ~name:"cert60" ~n:60 ~seed:3)
let small_problem () = Circuits.problem ~with_timing:true (Lazy.force small_instance)

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

let test_engine_outcome_certified () =
  let problem = small_problem () in
  let o = assert_ok (Engine.solve ~config:test_config problem) in
  check Alcotest.bool "certificate passed" true (Certify.ok o.Engine.certificate);
  check flt "certified objective is the reported cost" o.Engine.cost
    o.Engine.certificate.Certify.objective;
  check flt "zero drift end-to-end" 0.0 o.Engine.certificate.Certify.drift

let test_corrupt_incumbent_demoted () =
  let problem = small_problem () in
  match Engine.solve ~config:test_config ~fault:Engine.Fault.Corrupt_incumbent problem with
  | Ok o ->
    fail
      (Printf.sprintf "corrupt incumbent certified: cost %g, certificate %s" o.Engine.cost
         (Certify.to_json_string o.Engine.certificate))
  | Error (Engine.Error.Certification_failed { certificate }) ->
    check Alcotest.bool "audit failed" false (Certify.ok certificate);
    check Alcotest.bool "failure is drift, not feasibility" true
      (certificate.Certify.in_range && certificate.Certify.capacity_ok
     && certificate.Certify.timing_ok
      && certificate.Certify.drift > Certify.tolerance)
  | Error e -> fail (Printf.sprintf "wrong error: %s" (Engine.Error.to_string e))

let portfolio_config =
  { test_config with starts = 3; jobs = Some 1; retries = 2 }

let stage name (r : Engine.Report.t) =
  match List.find_opt (fun s -> s.Engine.Report.name = name) r.Engine.Report.stages with
  | Some s -> s
  | None -> fail (Printf.sprintf "no %S stage in the report" name)

let test_flaky_start_retried_to_certified_answer () =
  let problem = small_problem () in
  let o =
    assert_ok
      (Engine.solve ~config:portfolio_config ~fault:(Engine.Fault.Flaky_start 1) problem)
  in
  check Alcotest.bool "retried run still certified" true (Certify.ok o.Engine.certificate);
  let s = stage "portfolio" o.Engine.report in
  (match s.Engine.Report.detail with
  | Some d ->
    if not (contains d "retried") then fail ("detail does not account the retry: " ^ d)
  | None -> fail "no supervision detail despite an injected failure")

let test_all_starts_failing_descends_ladder () =
  (* With retries exhausted on every start the portfolio itself fails;
     the ladder — not the caller — absorbs it. *)
  let problem = small_problem () in
  let config = { portfolio_config with retries = 0 } in
  let o =
    assert_ok
      (Engine.solve ~config ~fault:(Engine.Fault.Flaky_start max_int) problem)
  in
  check Alcotest.bool "still certified" true (Certify.ok o.Engine.certificate);
  let r = o.Engine.report in
  (match (stage "portfolio" r).Engine.Report.outcome with
  | Engine.Report.Crashed _ -> ()
  | other ->
    fail
      (Format.asprintf "expected the portfolio to crash, got %a"
         Engine.Report.pp_stage_outcome other));
  check Alcotest.bool "fallbacks ran" true (r.Engine.Report.fallbacks <> [])

(* ------------------------------------------------------------------ *)
(* Checkpoint emission and resume through the engine. *)

let test_checkpoints_emitted_and_valid () =
  let problem = small_problem () in
  let seen = ref [] in
  let o =
    assert_ok
      (Engine.solve ~config:portfolio_config
         ~on_checkpoint:(fun cp -> seen := cp :: !seen)
         problem)
  in
  let cps = List.rev !seen in
  check Alcotest.bool "checkpoints were emitted" true (List.length cps >= 2);
  List.iter
    (fun cp ->
      (match Checkpoint.validate ~hash:(Checkpoint.instance_hash problem) cp problem with
      | Ok () -> ()
      | Error e -> fail ("emitted checkpoint invalid: " ^ Checkpoint.error_to_string e));
      let c = Certify.check ~claimed:cp.Checkpoint.incumbent_cost problem cp.Checkpoint.incumbent in
      check Alcotest.bool "every incumbent certifies" true (Certify.ok c))
    cps;
  let final = List.nth cps (List.length cps - 1) in
  check flt "final incumbent is the answer" o.Engine.cost final.Checkpoint.incumbent_cost;
  check Alcotest.int "all starts recorded" portfolio_config.Engine.Config.starts
    (List.length final.Checkpoint.starts);
  (* incumbent costs only ever improve along the emission sequence *)
  ignore
    (List.fold_left
       (fun prev cp ->
         if cp.Checkpoint.incumbent_cost > prev +. 1e-9 then
           fail
             (Printf.sprintf "incumbent regressed across checkpoints: %g -> %g" prev
                cp.Checkpoint.incumbent_cost);
         cp.Checkpoint.incumbent_cost)
       Float.infinity cps)

let test_resume_from_checkpoint () =
  let problem = small_problem () in
  let last = ref None in
  let o1 =
    assert_ok
      (Engine.solve ~config:portfolio_config
         ~on_checkpoint:(fun cp -> last := Some cp)
         problem)
  in
  let cp = match !last with Some cp -> cp | None -> fail "no checkpoint emitted" in
  let o2 = assert_ok (Engine.solve ~config:portfolio_config ~resume:cp problem) in
  check Alcotest.bool "resume never regresses the incumbent" true
    (o2.Engine.cost <= cp.Checkpoint.incumbent_cost +. 1e-9);
  check Alcotest.bool "resumed result certified" true (Certify.ok o2.Engine.certificate);
  (* every start is already recorded done, so the portfolio runs none *)
  ignore o1

let test_resume_rejected_on_foreign_instance () =
  let problem = small_problem () in
  let other =
    Circuits.problem ~with_timing:true (Circuits.scaled ~name:"other" ~n:40 ~seed:9)
  in
  let last = ref None in
  let _ =
    assert_ok
      (Engine.solve ~config:test_config ~on_checkpoint:(fun cp -> last := Some cp) problem)
  in
  let cp = match !last with Some cp -> cp | None -> fail "no checkpoint emitted" in
  match Engine.solve ~config:test_config ~resume:cp other with
  | Error (Engine.Error.Resume_rejected msg) ->
    if not (contains msg "different instance") then
      fail ("unexpected rejection message: " ^ msg)
  | Error e -> fail (Printf.sprintf "wrong error: %s" (Engine.Error.to_string e))
  | Ok _ -> fail "foreign checkpoint accepted"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "certify"
    [
      ( "audit",
        [
          Alcotest.test_case "feasible certificate" `Quick test_feasible_certificate;
          Alcotest.test_case "capacity violation" `Quick test_capacity_violation;
          Alcotest.test_case "timing violation" `Quick test_timing_violation;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "drift detected" `Quick test_drift_detected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "every Ok outcome certified" `Quick
            test_engine_outcome_certified;
          Alcotest.test_case "corrupt incumbent demoted to error" `Quick
            test_corrupt_incumbent_demoted;
          Alcotest.test_case "flaky start retried" `Quick
            test_flaky_start_retried_to_certified_answer;
          Alcotest.test_case "all starts failing descends the ladder" `Quick
            test_all_starts_failing_descends_ladder;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "checkpoints emitted and valid" `Quick
            test_checkpoints_emitted_and_valid;
          Alcotest.test_case "resume from checkpoint" `Quick test_resume_from_checkpoint;
          Alcotest.test_case "resume rejected on foreign instance" `Quick
            test_resume_rejected_on_foreign_instance;
        ] );
    ]
