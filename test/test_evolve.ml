(* lib/evolve tests: the domain pool's fork-join contract, diversity
   alignment, elite-pool admission determinism, operator repairability
   (children always come back to C1 ∧ C2), and the search driver's
   headline guarantees — jobs-invariance, one-generation equivalence
   with independent Adaptive starts (the plain portfolio), and
   certifier-clean champions. *)

open Qbpart_core
module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Dompool = Qbpart_pool.Dompool
module Diversity = Qbpart_evolve.Diversity
module Epool = Qbpart_evolve.Epool
module Operators = Qbpart_evolve.Operators
module Seeds = Qbpart_evolve.Seeds
module Evolve = Qbpart_evolve.Evolve
module Circuits = Qbpart_experiments.Circuits

let check = Alcotest.check
let fail = Alcotest.fail

let random_problem ?(timing = true) seed =
  let rng = Rng.create seed in
  let n = 10 + Rng.int rng 8 in
  let m = 4 in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires:(3 * n)) in
  let capacity = Netlist.total_size nl /. float_of_int m *. 1.6 in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity () in
  let constraints =
    if not timing then None
    else begin
      let cons = Constraints.Builder.create ~n in
      for _ = 1 to n / 2 do
        let j1 = Rng.int rng n and j2 = Rng.int rng n in
        if j1 <> j2 then Constraints.Builder.add cons j1 j2 (float_of_int (2 + Rng.int rng 2))
      done;
      Some (Constraints.Builder.build cons)
    end
  in
  Problem.make ?constraints nl topo

(* ------------------------------------------------------------------ *)
(* Dompool: fork-join correctness.                                     *)

let test_dompool_parallel_for () =
  let pool = Dompool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Dompool.shutdown pool)
    (fun () ->
      (* several batches on one pool: disjoint-slice writes must land
         exactly once each, every batch *)
      for round = 1 to 5 do
        let n = 1000 + round in
        let out = Array.make n (-1) in
        let chunks = 7 in
        Dompool.parallel_for pool ~chunks (fun c ->
            let lo = c * n / chunks and hi = (c + 1) * n / chunks in
            for i = lo to hi - 1 do
              out.(i) <- (if out.(i) = -1 then i * 2 else -999)
            done);
        Array.iteri
          (fun i v -> if v <> i * 2 then fail (Printf.sprintf "slot %d = %d" i v))
          out
      done)

let test_dompool_exception_propagates () =
  let pool = Dompool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Dompool.shutdown pool)
    (fun () ->
      (match
         Dompool.parallel_for pool ~chunks:8 (fun c -> if c = 5 then failwith "boom")
       with
      | () -> fail "expected the chunk failure to propagate"
      | exception Failure m -> check Alcotest.string "message" "boom" m);
      (* the pool survives a failed batch *)
      let total = Atomic.make 0 in
      Dompool.parallel_for pool ~chunks:4 (fun c -> ignore (Atomic.fetch_and_add total c));
      check Alcotest.int "next batch runs" 6 (Atomic.get total))

(* Back-to-back two-chunk batches until a helper domain runs chunk 1;
   chunk 0 sleeps a moment, so even a host that runs one of the pool's
   domains at a time lets the woken or spinning helper claim it. *)
let helper_takes_a_batch pool =
  let caller = (Domain.self () :> int) in
  let taken = ref false and tries = ref 0 in
  let t0 = Unix.gettimeofday () in
  while (not !taken) && Unix.gettimeofday () -. t0 < 10.0 do
    incr tries;
    let who = Array.make 2 caller in
    Dompool.parallel_for pool ~chunks:2 (fun c ->
        if c = 0 then Unix.sleepf 2e-4;
        who.(c) <- (Domain.self () :> int));
    if who.(1) <> caller then taken := true
  done;
  if not !taken then fail (Printf.sprintf "no helper took a chunk in %d batches" !tries)

let test_dompool_spin_takes_batch () =
  let pool = Dompool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Dompool.shutdown pool)
    (fun () ->
      helper_takes_a_batch pool;
      let first = Dompool.spin_hits pool in
      (* the helper that took chunk 1 spins for the next batch: post
         batches back to back until it meets one while spinning (on a
         host that runs one domain at a time, once the caller is
         preempted) *)
      let t0 = Unix.gettimeofday () in
      while Dompool.spin_hits pool = first && Unix.gettimeofday () -. t0 < 10.0 do
        let out = Array.make 2 0 in
        Dompool.parallel_for pool ~chunks:2 (fun c -> out.(c) <- c + 1);
        check Alcotest.(array int) "both chunks" [| 1; 2 |] out
      done;
      check Alcotest.bool "a spinning helper met a batch" true
        (Dompool.spin_hits pool > first))

let test_dompool_parked_batch_runs () =
  let pool = Dompool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Dompool.shutdown pool)
    (fun () ->
      helper_takes_a_batch pool;
      (* past its spin the helper parks: the next batch still runs,
         every chunk once, on the woken helper or the caller *)
      Unix.sleepf (40.0 *. Dompool.spin_seconds);
      let out = Array.make 6 0 in
      Dompool.parallel_for pool ~chunks:6 (fun c -> out.(c) <- out.(c) + c + 1);
      check Alcotest.(array int) "every chunk once" [| 1; 2; 3; 4; 5; 6 |] out;
      (* and a later batch reaches the helper again *)
      helper_takes_a_batch pool)

let test_dompool_shutdown_while_spinning () =
  let pool = Dompool.create ~domains:2 in
  helper_takes_a_batch pool;
  (* the helper that took chunk 1 is spinning for the next batch now;
     the spin watches the stop flag *)
  let t0 = Unix.gettimeofday () in
  Dompool.shutdown pool;
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 1.0 then fail (Printf.sprintf "shutdown took %.3f s" dt);
  Dompool.shutdown pool;
  match Dompool.parallel_for pool ~chunks:2 ignore with
  | () -> fail "a shut-down pool took a batch"
  | exception Invalid_argument _ -> ()

let test_dompool_sequential_inline () =
  (* the shared sequential pool never spawns and runs inline *)
  check Alcotest.int "size" 1 (Dompool.size Dompool.sequential);
  let hit = ref 0 in
  Dompool.parallel_for Dompool.sequential ~chunks:5 (fun _ -> incr hit);
  check Alcotest.int "chunks" 5 !hit

(* ------------------------------------------------------------------ *)
(* Diversity: label-permutation alignment.                             *)

let prop_diversity_label_permutation_is_zero =
  QCheck.Test.make ~name:"aligned distance quotients label permutations" ~count:100
    QCheck.(pair (int_range 0 10_000) (int_range 2 6))
    (fun (seed, m) ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 20 in
      let a = Assignment.random rng ~n ~m in
      (* relabel through a random permutation of the partition ids *)
      let perm = Array.init m Fun.id in
      Rng.shuffle rng perm;
      let b = Array.map (fun i -> perm.(i)) a in
      Diversity.aligned_distance ~m a b = 0
      && Diversity.aligned_distance ~m a a = 0
      && Diversity.aligned_distance ~m a b <= Diversity.hamming a b)

(* ------------------------------------------------------------------ *)
(* Epool: admission rules and determinism.                             *)

let admit_sequence pool seq =
  List.map
    (fun (a, cost, origin) ->
      match Epool.admit pool a ~cost ~origin with
      | Epool.Admitted -> "admitted"
      | Epool.Replaced _ -> "replaced"
      | Epool.Rejected -> "rejected")
    seq

let prop_epool_admission_deterministic =
  QCheck.Test.make ~name:"epool admission is a pure function of the sequence" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = 3 and n = 12 in
      let seq =
        List.init 30 (fun k ->
            (Assignment.random rng ~n ~m, float_of_int (Rng.int rng 40), k))
      in
      let p1 = Epool.create ~capacity:4 ~min_distance:2 ~m in
      let p2 = Epool.create ~capacity:4 ~min_distance:2 ~m in
      let v1 = admit_sequence p1 seq and v2 = admit_sequence p2 seq in
      let entries p =
        List.map (fun e -> (e.Epool.assignment, e.Epool.cost, e.Epool.birth)) (Epool.entries p)
      in
      v1 = v2 && entries p1 = entries p2)

let prop_epool_invariants =
  QCheck.Test.make ~name:"epool: capacity bound, monotone champion, no duplicates"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = 3 and n = 10 in
      let pool = Epool.create ~capacity:3 ~min_distance:2 ~m in
      let ok = ref true in
      let best = ref infinity in
      for k = 0 to 39 do
        let a = Assignment.random rng ~n ~m in
        let cost = float_of_int (Rng.int rng 25) in
        ignore (Epool.admit pool a ~cost ~origin:k);
        (match Epool.best pool with
        | None -> ok := false
        | Some e ->
          (* the champion never worsens *)
          if e.Epool.cost > !best then ok := false else best := e.Epool.cost);
        if Epool.size pool > Epool.capacity pool then ok := false;
        (* distance-0 rejection means entries stay pairwise distinct *)
        if Epool.size pool >= 2 && Epool.min_pairwise_distance pool < 1 then ok := false
      done;
      !ok)

let test_epool_replacement_needs_improvement () =
  let m = 2 in
  let pool = Epool.create ~capacity:4 ~min_distance:3 ~m in
  let a = [| 0; 0; 0; 0; 1; 1; 1; 1 |] in
  (match Epool.admit pool a ~cost:10.0 ~origin:0 with
  | Epool.Admitted -> ()
  | _ -> fail "first admission");
  (* one flip away: inside the diversity radius, worse cost — rejected *)
  let b = Array.copy a in
  b.(0) <- 1;
  (match Epool.admit pool b ~cost:11.0 ~origin:1 with
  | Epool.Rejected -> ()
  | _ -> fail "near and worse must be rejected");
  (* inside the radius but strictly better — replaces the near entry *)
  (match Epool.admit pool b ~cost:9.0 ~origin:2 with
  | Epool.Replaced e -> check (Alcotest.float 0.0) "evicted" 10.0 e.Epool.cost
  | _ -> fail "near and better must replace");
  check Alcotest.int "size" 1 (Epool.size pool)

(* ------------------------------------------------------------------ *)
(* Operators: children always repair back to the feasible set.         *)

let feasible_parent problem seed =
  let n = Problem.n problem and m = Problem.m problem in
  let a = Assignment.random (Rng.create seed) ~n ~m in
  if Operators.repair problem a then Some a else None

let prop_operator_children_repairable =
  QCheck.Test.make ~name:"crossover/relink children repair to C1 and C2" ~count:40
    QCheck.(pair (int_range 0 100_000) bool)
    (fun (seed, timing) ->
      let problem = Problem.normalize (random_problem ~timing seed) in
      let m = Problem.m problem in
      match (feasible_parent problem (seed + 1), feasible_parent problem (seed + 2)) with
      | Some p1, Some p2 ->
        let child = Operators.crossover (Rng.create (seed + 3)) ~m p1 p2 in
        let cross_ok = Operators.repair problem child && Problem.feasible problem child in
        let relink_ok =
          match Operators.path_relink problem ~source:p1 ~target:p2 with
          | None -> true (* no feasible strict intermediate exists *)
          | Some (a, cost) ->
            Problem.feasible problem a
            && Float.abs (cost -. Problem.objective problem a) < 1e-6
        in
        cross_ok && relink_ok
      | _ -> true (* instance too tight to build feasible parents: vacuous *))

let prop_seeds_complete_and_deterministic =
  QCheck.Test.make ~name:"recursive-bipartition seeds are complete and seeded" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = Problem.normalize (random_problem ~timing:false seed) in
      let n = Problem.n problem and m = Problem.m problem in
      let a1 = Seeds.recursive_bipartition (Rng.create seed) problem in
      let a2 = Seeds.recursive_bipartition (Rng.create seed) problem in
      Array.length a1 = n
      && Array.for_all (fun i -> i >= 0 && i < m) a1
      && a1 = a2
      (* a bipartition seed actually uses more than one partition *)
      && (n < 2 || m < 2 || Array.exists (fun i -> i <> a1.(0)) a1))

(* Seeds pinned by digest on the seven Table I circuits at 2x2 and 4x4,
   seeds 1-5 each: the region growth's pick order and its gain sums
   decide every label. *)
let test_seeds_pinned () =
  let digest ~rows ~cols spec =
    let problem = Circuits.problem (Circuits.build ~rows ~cols ~reference_iterations:1 spec) in
    let b = Buffer.create 4096 in
    for seed = 1 to 5 do
      Array.iter
        (fun i -> Buffer.add_string b (Printf.sprintf "%d " i))
        (Seeds.recursive_bipartition (Rng.create seed) problem);
      Buffer.add_char b '\n'
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter2
    (fun spec (expect2, expect4) ->
      let name = spec.Circuits.name in
      check Alcotest.string (name ^ " 2x2") expect2 (digest ~rows:2 ~cols:2 spec);
      check Alcotest.string (name ^ " 4x4") expect4 (digest ~rows:4 ~cols:4 spec))
    Circuits.table1
    [
      ("1b8b0c16f76fcb7b10dea97abea42100", "dcf30545c650fafd85a607fd9cb6380f");
      ("4ec917d4be3e44cd848491c20d606cb8", "a6e004e3b04ed563e65de857e012c95f");
      ("7b43b1fb6eb714c1687e3c39f2e93397", "9a7244ac488bd6d806e880dac9b26c7f");
      ("0d70a566e4e340c0fc342baf2fda5d31", "fd390cb2bcdadce89cb372eb36182a01");
      ("e756ad8b6a75620a022ff501353432c0", "896b6f78f7c1c15f872f775ddf142132");
      ("84ab3898403ec4da40476bd68c484485", "70ae3ba6b7ff9de54f0ac274b77096dd");
      ("000ff9b679f76d0d98784c493a356931", "b52d1cbffef72df2833fb45d3709d136");
    ]

(* ------------------------------------------------------------------ *)
(* The driver: determinism, portfolio equivalence, certification.      *)

let evolve_config seed = { Burkard.Config.default with iterations = 25; seed }

let prop_evolve_jobs_invariant =
  QCheck.Test.make ~name:"evolve champion is jobs- and inner-jobs-invariant" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let problem = random_problem seed in
      let solve ~jobs ~inner_jobs =
        Evolve.solve ~config:(evolve_config seed) ~jobs ~inner_jobs ~starts:5
          ~generations:3 ~pool_size:4 problem
      in
      let r1 = solve ~jobs:1 ~inner_jobs:1 in
      let r2 = solve ~jobs:3 ~inner_jobs:2 in
      let same =
        match (r1.Evolve.best_feasible, r2.Evolve.best_feasible) with
        | None, None -> true
        | Some (a1, c1), Some (a2, c2) -> a1 = a2 && c1 = c2
        | _ -> false
      in
      same && r1.Evolve.winner = r2.Evolve.winner
      && r1.Evolve.best_cost = r2.Evolve.best_cost)

let prop_evolve_certifier_clean =
  QCheck.Test.make ~name:"every evolve champion passes the independent certifier"
    ~count:8
    QCheck.(pair (int_range 0 10_000) bool)
    (fun (seed, timing) ->
      let problem = random_problem ~timing seed in
      let r =
        Evolve.solve ~config:(evolve_config seed) ~jobs:2 ~starts:5 ~generations:3
          ~pool_size:4 problem
      in
      match r.Evolve.best_feasible with
      | None -> true
      | Some (a, cost) -> Certify.ok (Certify.check ~claimed:cost problem a))

(* The plain portfolio, written out: one Adaptive.solve per start
   seed, reduced by the earliest strict winner — the feasible champion
   when any start has one, else the penalized one. *)
let portfolio_oracle ~config ~starts problem =
  let runs =
    List.init starts (fun k ->
        let seed = Evolve.start_seed ~base:config.Burkard.Config.seed k in
        Adaptive.solve ~config:{ config with Burkard.Config.seed } problem)
  in
  let best_feasible = ref None and feasible_at = ref None in
  let best_cost = ref infinity and penalized_at = ref None in
  List.iteri
    (fun k r ->
      (match (r.Adaptive.best_feasible, !best_feasible) with
      | Some (_, c), Some (_, c') when c >= c' -> ()
      | (Some _ as f), _ ->
        best_feasible := f;
        feasible_at := Some k
      | None, _ -> ());
      let c = r.Adaptive.last.Burkard.best_cost in
      if c < !best_cost then begin
        best_cost := c;
        penalized_at := Some k
      end)
    runs;
  let winner = match !feasible_at with Some _ as w -> w | None -> !penalized_at in
  (!best_feasible, winner, !best_cost)

let test_evolve_gen1_matches_portfolio () =
  (* one generation = independent starts reduced by index, bit for bit,
     whatever the domain count *)
  List.iter
    (fun seed ->
      let problem = random_problem seed in
      let config = evolve_config seed in
      let feasible, winner, penalized = portfolio_oracle ~config ~starts:6 problem in
      List.iter
        (fun jobs ->
          let e = Evolve.solve ~config ~jobs ~starts:6 ~generations:1 problem in
          (match (e.Evolve.best_feasible, feasible) with
          | Some (a1, c1), Some (a2, c2) ->
            if a1 <> a2 || c1 <> c2 then fail "feasible champion differs"
          | None, None -> ()
          | _ -> fail "feasibility verdict differs");
          check Alcotest.(option int) "winner" winner e.Evolve.winner;
          check (Alcotest.float 0.0) "penalized" penalized e.Evolve.best_cost)
        [ 1; 4 ])
    [ 11; 42; 1234 ]

let test_evolve_elites_diverse_and_feasible () =
  let problem = Problem.normalize (random_problem ~timing:true 77) in
  let r =
    Evolve.solve ~config:(evolve_config 77) ~jobs:2 ~starts:8 ~generations:4
      ~pool_size:4 ~min_distance:2 problem
  in
  let elites = r.Evolve.elites in
  if elites = [] then fail "no elites admitted";
  List.iter
    (fun e ->
      if not (Problem.feasible problem e.Epool.assignment) then
        fail "infeasible elite in the pool";
      let recomputed = Problem.objective problem e.Epool.assignment in
      if Float.abs (recomputed -. e.Epool.cost) > 1e-6 then fail "stale elite cost")
    elites;
  (* reseeding happened and was recorded *)
  if r.Evolve.reseeded = 0 then fail "no reseeded starts in 4 generations";
  if List.length
       (List.filter (fun (s : Evolve.start_report) -> s.reseeded) r.Evolve.reports)
     <> r.Evolve.reseeded
  then fail "reseeded flag inconsistent with the count"

let test_evolve_budget_split () =
  (* the generation plan spends exactly the portfolio budget *)
  let problem = random_problem 5 in
  let r =
    Evolve.solve ~config:(evolve_config 5) ~jobs:1 ~starts:9 ~generations:3 problem
  in
  check Alcotest.int "all starts executed" 9 (List.length r.Evolve.reports);
  let gens = List.sort_uniq compare (List.map (fun s -> s.Evolve.generation) r.Evolve.reports) in
  check Alcotest.(list int) "three generations ran" [ 0; 1; 2 ] gens

(* The automatic inner count shares its domains among the starts that
   run at once (generation 0's, as the plan above splits them, capped
   by [jobs]): those starts times their inner pools stay within the
   domains unless the starts alone exceed them, with at most 2 and at
   least 1 domain per start, and 2 wherever the domains allow them. *)
let test_evolve_auto_inner_jobs () =
  let gen0 ~starts ~generations =
    let gens = max 1 (min generations starts) in
    let later = if gens = 1 then 0 else max 1 (starts / (2 * gens)) in
    starts - ((gens - 1) * later)
  in
  for domains = 1 to 40 do
    for jobs = 1 to 40 do
      for starts = 1 to 16 do
        for generations = 1 to 5 do
          let running = min jobs (gen0 ~starts ~generations) in
          let inner = Evolve.auto_inner_jobs ~domains ~jobs ~starts ~generations in
          if inner < 1 || inner > 2 || running * inner > max domains running
             || (domains >= 2 * running && inner <> 2)
          then
            fail
              (Printf.sprintf "domains %d jobs %d starts %d generations %d: %d x %d" domains
                 jobs starts generations running inner)
        done
      done
    done
  done;
  let auto domains jobs starts = Evolve.auto_inner_jobs ~domains ~jobs ~starts ~generations:1 in
  (* a daemon worker's share on 8 and 32 cores, one worker *)
  check Alcotest.int "4 starts, 7 domains" 1 (auto 7 8 4);
  check Alcotest.int "8 starts, 31 domains" 2 (auto 31 32 8);
  (* one start on two cores uses both; --jobs 1 and --starts 4 do not *)
  check Alcotest.int "1 start, 2 domains" 2 (auto 2 2 1);
  check Alcotest.int "jobs 1" 1 (auto 1 1 1);
  check Alcotest.int "4 starts, 2 domains" 1 (auto 2 2 4)

let test_evolve_validation () =
  let problem = random_problem 3 in
  let expect_invalid f =
    match f () with
    | (_ : Evolve.result) -> fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Evolve.solve ~starts:0 problem);
  expect_invalid (fun () -> Evolve.solve ~generations:0 problem);
  expect_invalid (fun () -> Evolve.solve ~pool_size:0 problem);
  expect_invalid (fun () -> Evolve.solve ~jobs:0 problem);
  expect_invalid (fun () -> Evolve.solve ~inner_jobs:0 problem);
  expect_invalid (fun () -> Evolve.solve ~min_distance:(-1) problem);
  expect_invalid (fun () -> Evolve.solve ~retries:(-1) problem)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "evolve"
    [
      ( "dompool",
        [
          Alcotest.test_case "parallel_for slices" `Quick test_dompool_parallel_for;
          Alcotest.test_case "exception propagates" `Quick test_dompool_exception_propagates;
          Alcotest.test_case "sequential inline" `Quick test_dompool_sequential_inline;
          Alcotest.test_case "a batch posted during the spin is taken" `Quick
            test_dompool_spin_takes_batch;
          Alcotest.test_case "a batch posted after parking still runs" `Quick
            test_dompool_parked_batch_runs;
          Alcotest.test_case "shutdown while a helper spins" `Quick
            test_dompool_shutdown_while_spinning;
        ] );
      ("diversity", [ qt prop_diversity_label_permutation_is_zero ]);
      ( "epool",
        [
          qt prop_epool_admission_deterministic;
          qt prop_epool_invariants;
          Alcotest.test_case "replacement rule" `Quick test_epool_replacement_needs_improvement;
        ] );
      ( "operators",
        [
          qt prop_operator_children_repairable;
          qt prop_seeds_complete_and_deterministic;
          Alcotest.test_case "Table I seeds pinned" `Quick test_seeds_pinned;
        ] );
      ( "driver",
        [
          qt prop_evolve_jobs_invariant;
          qt prop_evolve_certifier_clean;
          Alcotest.test_case "gen1 = portfolio" `Quick test_evolve_gen1_matches_portfolio;
          Alcotest.test_case "elites feasible + reseeds" `Quick
            test_evolve_elites_diverse_and_feasible;
          Alcotest.test_case "budget split" `Quick test_evolve_budget_split;
          Alcotest.test_case "automatic inner count within its domains" `Quick
            test_evolve_auto_inner_jobs;
          Alcotest.test_case "validation" `Quick test_evolve_validation;
        ] );
    ]
