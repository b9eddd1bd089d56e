(* The benchmark of record: one workload per process.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --inputs DIR --workdir DIR [--tiny]

   Workloads (see README.md for what each one loads and bypasses):

   - paper_table3   the seven Table I circuits in the Table III setting,
                    parsed from the committed input set in DIR; QBP via
                    Engine.solve, GFM and GKL from one shared start;
   - synth10k_warm  synth10k handed over as text and warm-started from
                    its planted reference, single-threaded, fixed
                    Burkard iteration budget;
   - served_eco     an in-process qbpartd on ckta (2x2, slack 1.3) under
                    a closed loop of two clients: cold evolve jobs timed
                    over the Events stream, and an ECO session streaming
                    retime deltas.

   With --trace 0 the run measures the end-to-end metrics over a fixed
   amount of work sized from --seconds; with --trace 1 it instead splits
   the same work into layers (stage
   walls, a mirrored Burkard run with per-iteration GAP timing,
   standalone kernel calls, client-side server timings).  Every answer
   is re-validated independently of the solver's own report; any
   mismatch counts as a failed operation.  The last stdout line is one
   JSON object: {"correct", "attempted", "failed", "metrics"}. *)

module Netlist = Qbpart_netlist.Netlist
module Parser = Qbpart_netlist.Parser
module Delta = Qbpart_netlist.Delta
module Component = Qbpart_netlist.Component
module Topology = Qbpart_topology.Topology
module Grid = Qbpart_topology.Grid
module Constraints = Qbpart_timing.Constraints
module Constraints_io = Qbpart_timing.Constraints_io
module Assignment = Qbpart_partition.Assignment
module Validate = Qbpart_partition.Validate
module Evaluate = Qbpart_partition.Evaluate
module Gap = Qbpart_gap.Gap
module Mthg = Qbpart_gap.Mthg
module Problem = Qbpart_core.Problem
module Qmatrix = Qbpart_core.Qmatrix
module Repair = Qbpart_core.Repair
module Burkard = Qbpart_core.Burkard
module Adaptive = Qbpart_core.Adaptive
module Certify = Qbpart_core.Certify
module Gfm = Qbpart_baselines.Gfm
module Gkl = Qbpart_baselines.Gkl
module Engine = Qbpart_engine.Engine
module Checkpoint = Qbpart_engine.Checkpoint
module Synth = Qbpart_experiments.Synth
module Circuits = Qbpart_experiments.Circuits
module Protocol = Qbpart_server.Protocol
module Client = Qbpart_server.Client
module Server = Qbpart_server.Server
module Scheduler = Qbpart_server.Scheduler

(* ------------------------------------------------------------------ *)
(* measurement helpers                                                 *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest-rank percentile, q in [0, 1] *)
let percentile q l =
  let a = sorted l in
  match Array.length a with
  | 0 -> 0.0
  | n -> a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median l = percentile 0.5 l
let sum l = List.fold_left ( +. ) 0.0 l
let mean l = match l with [] -> 0.0 | _ -> sum l /. float_of_int (List.length l)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The tail reported for a latency sample: the highest percentile that
   still has at least ten samples beyond it.  Returns (value,
   percentile, samples); below 11 samples it degrades to the maximum. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0, 0)
  else if n <= 10 then (a.(n - 1), 100.0, n)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, n)

(* Repeat [f] until [min_time] seconds or [max_reps] calls (at least 3),
   returning the median call time in seconds. *)
let kernel_time ?(min_time = 0.3) ?(max_reps = 200) ?(prepare = fun () -> ()) f =
  let samples = ref [] and spent = ref 0.0 and reps = ref 0 in
  while !reps < 3 || (!spent < min_time && !reps < max_reps) do
    prepare ();
    let (), dt = timed f in
    samples := dt :: !samples;
    spent := !spent +. dt;
    incr reps
  done;
  median !samples

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec loop () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          match
            String.split_on_char ' '
              (String.map (fun c -> if c = '\t' then ' ' else c)
                 (String.sub line 6 (String.length line - 6)))
            |> List.filter (( <> ) "")
          with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> 0.0
        else loop ()
    in
    let v = loop () in
    close_in ic;
    v

(* The host's speed drifts by tens of percent over seconds to minutes:
   other tenants' memory traffic slows memory-bound code while a
   compute-only loop keeps its pace.  The harness times a fixed probe of
   its own (a streaming pass over 16 MB and an allocate-and-sort round,
   no program code, so no change to the program can move it) next to
   every gated operation, and rescales the operation's wall time to the
   probe's reference time:

     reference seconds = wall * probe_ref_s / mean (probe before, probe after)

   On a 2-core Xeon the probe explains 60-90 % of the variance of a
   solve's log wall time with a slope near 1. *)
let probe_ref_s = 0.020
let probe_buf = Array.make (1 lsl 21) 1.0

let probe () =
  let t0 = now () in
  let s = ref 0.0 in
  for _ = 1 to 4 do
    for i = 0 to Array.length probe_buf - 1 do
      s := !s +. probe_buf.(i)
    done
  done;
  for r = 1 to 2 do
    let a = Array.init 20000 (fun i -> float_of_int (((i * 7919) + r) mod 20011)) in
    Array.sort compare a;
    ignore (Sys.opaque_identity (List.rev_map (fun x -> x +. 1.0) (Array.to_list a)))
  done;
  ignore (Sys.opaque_identity !s);
  now () -. t0

(* every probe taken, and the latest one with its time: an operation
   that follows another within a quarter second shares its probe *)
let probes = ref []
let last_probe = ref (neg_infinity, nan)

let take_probe () =
  let c = probe () in
  probes := c :: !probes;
  last_probe := (now (), c);
  c

(* [f ()] with its wall time and its reference time *)
let scaled f =
  let at, c = !last_probe in
  let before = if now () -. at < 0.25 then c else take_probe () in
  let r, wall = timed f in
  let after = take_probe () in
  (r, wall, wall *. probe_ref_s *. 2.0 /. (before +. after))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* operation accounting: every operation the benchmark attempts is
   counted, and each one that errors, is refused, comes back
   uncertified, or fails the harness's own re-validation is a failure *)

let attempted = ref 0
let failed = ref 0
let failure_lock = Mutex.create ()

let attempt ok fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.lock failure_lock;
      incr attempted;
      if not ok then begin
        incr failed;
        Printf.eprintf "FAILED: %s\n%!" msg
      end;
      Mutex.unlock failure_lock)
    fmt

let hash_hex h = Printf.sprintf "%016Lx" h

(* Independent re-validation of an answer: feasibility from the raw
   instance and an equation-(1) objective recomputed by the evaluator
   that must equal the reported cost bit for bit. *)
let revalidate what (problem : Problem.t) a reported =
  let nl = problem.Problem.netlist and topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  let issues = Validate.check ~constraints:cons nl topo a in
  let obj = Evaluate.objective nl topo a in
  attempt
    (issues = [] && obj = reported)
    "%s: %d issue(s), recomputed objective %.17g vs reported %.17g" what
    (List.length issues) obj reported

(* ------------------------------------------------------------------ *)
(* inputs                                                              *)

(* One circuit handed over as text: netlist, budgets (may be empty),
   warm start, and its uniform grid geometry. *)
type source = {
  s_name : string;
  net : string;
  tim : string;
  start_txt : string;
  rows : int;
  cols : int;
  capacity : float;
}

type inst = {
  name : string;
  problem : Problem.t;
  start : Assignment.t;
  start_cost : float;
  hash : int64;
}

type setup_split = { parse_nl : float; parse_tim : float; make : float; total : float }

let get what = function
  | Ok v -> v
  | Error msg -> failwith (what ^ ": " ^ msg)

(* parse + problem construction, timed by layer *)
let build_instance src =
  let t0 = now () in
  let nl = get src.s_name (Result.map_error Parser.error_to_string (Parser.parse_string src.net)) in
  let t1 = now () in
  let cons =
    get src.s_name
      (Result.map_error Constraints_io.error_to_string (Constraints_io.parse_string nl src.tim))
  in
  let t2 = now () in
  let start = Start_text.of_string nl src.start_txt in
  let t3 = now () in
  let topo = Grid.make ~rows:src.rows ~cols:src.cols ~capacity:src.capacity () in
  let problem = Problem.make ~constraints:cons nl topo in
  let t4 = now () in
  ( { name = src.s_name; problem; start; start_cost = Problem.objective problem start;
      hash = Checkpoint.instance_hash problem },
    { parse_nl = t1 -. t0; parse_tim = t2 -. t1; make = t4 -. t3; total = t4 -. t0 } )

let build_all srcs =
  let built = List.map build_instance srcs in
  let add f = sum (List.map (fun (_, s) -> f s) built) in
  ( List.map fst built,
    {
      parse_nl = add (fun s -> s.parse_nl);
      parse_tim = add (fun s -> s.parse_tim);
      make = add (fun s -> s.make);
      total = add (fun s -> s.total);
    } )

(* the committed Table III inputs of one set: manifest lines
   "<circuit> <rows> <cols> <capacity>" plus three text files each *)
let table3_sources ~tiny dir =
  let manifest = read_file (Filename.concat dir "manifest") in
  let lines = String.split_on_char '\n' manifest |> List.filter (( <> ) "") in
  let lines = if tiny then [ List.hd lines ] else lines in
  List.map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ name; rows; cols; cap ] ->
        let f ext = read_file (Filename.concat dir (name ^ ext)) in
        {
          s_name = name;
          net = f ".net";
          tim = f ".tim";
          start_txt = f ".start";
          rows = int_of_string rows;
          cols = int_of_string cols;
          capacity = float_of_string cap;
        }
      | _ -> failwith ("bad manifest line: " ^ line))
    lines

(* synth10k, generated in memory and handed over as text; the planted
   reference is the warm start *)
let synth_source ~tiny =
  let p = Option.get (Synth.find "synth10k") in
  let p = if tiny then { p with Synth.n = 1000; name = "synth1k" } else p in
  let inst = Synth.build p in
  let nl = inst.Circuits.netlist in
  ( {
      s_name = p.Synth.name;
      net = Qbpart_netlist.Printer.to_string nl;
      tim = Constraints_io.to_string nl inst.Circuits.constraints;
      start_txt = Start_text.to_string nl inst.Circuits.reference;
      rows = p.Synth.rows;
      cols = p.Synth.cols;
      capacity = Topology.capacity inst.Circuits.topology 0;
    },
    Checkpoint.instance_hash (Circuits.problem inst) )

(* ------------------------------------------------------------------ *)
(* metrics output                                                      *)

type metric = { m_name : string; value : float; unit_ : string }

let metric m_name unit_ value = { m_name; value; unit_ }

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, value, unit_, dir) ->
      Printf.printf "  %-28s %14.6f %-6s %s\n" name value unit_
        (match dir with `Lower -> "lower is better" | `Higher -> "higher is better" | `None -> ""))
    rows

let emit metrics =
  let correct = !failed = 0 && List.for_all (fun m -> Float.is_finite m.value) metrics in
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.m_name
          (if Float.is_finite m.value then m.value else 0.0)
          m.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed (String.concat ", " body)

(* ------------------------------------------------------------------ *)
(* local solves: QBP through the engine, GFM and GKL from the shared
   start.  One pass solves every instance once with each method. *)

(* [ref_s] is [wall] in reference seconds (see [scaled]); GFM and GKL,
   which no gated metric reads, keep their wall *)
type cell = {
  wall : float;
  ref_s : float;
  cost : float;
  extra : int * int; (* passes/loops, moves/swaps *)
}

type pass = { qbp : cell list; gfm : cell list; gkl : cell list }

let solve_qbp config (i : inst) =
  let r, wall, ref_s = scaled (fun () -> Engine.solve ~config ~initial:i.start i.problem) in
  match r with
  | Ok o ->
    attempt (Certify.ok o.Engine.certificate) "%s: qbp answer uncertified" i.name;
    revalidate (i.name ^ " qbp") i.problem o.Engine.assignment o.Engine.cost;
    Some (o, wall, ref_s)
  | Error e ->
    attempt false "%s: engine error %s" i.name (Engine.Error.to_string e);
    None

let solve_gfm (i : inst) =
  let p = i.problem in
  let r, wall =
    timed (fun () ->
        Gfm.solve ~constraints:p.Problem.constraints p.Problem.netlist p.Problem.topology
          ~initial:(Assignment.copy i.start))
  in
  revalidate (i.name ^ " gfm") p r.Gfm.assignment r.Gfm.cost;
  { wall; ref_s = wall; cost = r.Gfm.cost; extra = (r.Gfm.passes, r.Gfm.moves) }

let solve_gkl (i : inst) =
  let p = i.problem in
  let r, wall =
    timed (fun () ->
        Gkl.solve ~constraints:p.Problem.constraints p.Problem.netlist p.Problem.topology
          ~initial:(Assignment.copy i.start))
  in
  revalidate (i.name ^ " gkl") p r.Gkl.assignment r.Gkl.cost;
  { wall; ref_s = wall; cost = r.Gkl.cost; extra = (r.Gkl.outer_loops, r.Gkl.swaps) }

let run_pass ~baselines config insts =
  let qbp =
    List.map
      (fun i ->
        match solve_qbp config i with
        | Some (o, wall, ref_s) -> { wall; ref_s; cost = o.Engine.cost; extra = (0, 0) }
        | None -> { wall = nan; ref_s = nan; cost = nan; extra = (0, 0) })
      insts
  in
  let base f = if baselines then List.map f insts else [] in
  { qbp; gfm = base solve_gfm; gkl = base solve_gkl }

(* [passes] QBP passes, each later one on the fresh instances [fresh]
   builds; GFM and GKL, which no gated metric reads, run in the first
   pass only.  The engine is deterministic, so each later pass must
   reproduce the first pass's costs exactly. *)
let measure_passes ~baselines ~passes ~fresh config insts =
  let first = run_pass ~baselines config insts in
  let later = ref [] in
  for _ = 2 to passes do
    let p = run_pass ~baselines:false config (fresh ()) in
    attempt
      (List.for_all2 (fun x y -> x.cost = y.cost) p.qbp first.qbp)
      "repeated pass changed an answer (nondeterminism)";
    later := p :: !later
  done;
  first :: List.rev !later

(* Σ over instances of the median QBP reference time across passes *)
let qbp_ref_time insts passes =
  sum (List.mapi (fun k _ -> median (List.map (fun p -> (List.nth p.qbp k).ref_s) passes)) insts)

(* the paper's "(-%)" column: mean improvement over the shared start *)
let improvement insts cells =
  mean
    (List.map2 (fun (i : inst) c -> 100.0 *. (i.start_cost -. c.cost) /. i.start_cost) insts cells)

(* ------------------------------------------------------------------ *)
(* traced local run: the engine's stage walls, a standalone certifier
   call, and the engine's single-start QBP stage mirrored with
   Adaptive.solve ~observe ~gap_solver under the same configuration
   and stall guard, timed per iteration and per GAP call *)

(* Engine.stall_guard, reproduced: stop after [patience] iterations
   without a penalized improvement of at least [epsilon] *)
let stall_guard ~patience ~epsilon =
  let best = ref infinity and since = ref 0 and stalled = ref false in
  let observe (it : Burkard.iteration) =
    if patience > 0 then
      if it.Burkard.penalized < !best -. epsilon then begin
        best := it.Burkard.penalized;
        since := 0
      end
      else begin
        incr since;
        if !since >= patience then stalled := true
      end
  in
  (observe, fun () -> !stalled)

type trace = {
  mutable iters : int;
  mutable rounds : int;
  mutable feasible_iters : int;
  mutable best_at : float list;          (* per instance, share of iterations *)
  mutable iter_ms : float list;
  mutable outside_ms : float list;
  mutable alloc_mb : float list;
  mutable step4_ms : float list;
  mutable step6_ms : float list;
  mutable gap_calls : int;
  mutable overflow : int;
  mutable moved : float list;
  mutable layer_sum_s : float;           (* Σ step4 + step6 + outside *)
  mutable mirror_s : float;
  mutable qbp_stage_s : float;
  mutable initial_s : float;
  mutable fallbacks : int;
  mutable certify_s : float;
}

let new_trace () =
  {
    iters = 0; rounds = 0; feasible_iters = 0; best_at = []; iter_ms = []; outside_ms = [];
    alloc_mb = []; step4_ms = []; step6_ms = []; gap_calls = 0; overflow = 0; moved = [];
    layer_sum_s = 0.0; mirror_s = 0.0; qbp_stage_s = 0.0; initial_s = 0.0; fallbacks = 0;
    certify_s = 0.0;
  }

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let stage_of (o : Engine.outcome) name =
  List.find_opt (fun s -> s.Engine.Report.name = name) o.Engine.report.Engine.Report.stages

let trace_instance tr (config : Engine.Config.t) (i : inst) =
  (* 1. the untraced engine solve: stage walls and fallbacks *)
  match Engine.solve ~config ~initial:i.start i.problem with
  | Error e -> attempt false "%s: engine error %s" i.name (Engine.Error.to_string e)
  | Ok o ->
    revalidate (i.name ^ " qbp (traced run)") i.problem o.Engine.assignment o.Engine.cost;
    let stage_wall n = match stage_of o n with Some s -> s.Engine.Report.wall_seconds | None -> 0.0 in
    let stage_cost = match stage_of o "qbp" with Some s -> s.Engine.Report.cost_after | None -> nan in
    tr.initial_s <- tr.initial_s +. stage_wall "initial";
    tr.qbp_stage_s <- tr.qbp_stage_s +. stage_wall "qbp";
    tr.fallbacks <- tr.fallbacks + List.length o.Engine.report.Engine.Report.fallbacks;
    (* 2. the certifier on its own *)
    tr.certify_s <-
      tr.certify_s
      +. kernel_time ~max_reps:20 (fun () ->
             ignore (Certify.check ~claimed:o.Engine.cost i.problem o.Engine.assignment));
    (* 3. the mirrored QBP stage *)
    let n = Problem.n i.problem in
    let guard, stalled =
      stall_guard ~patience:config.Engine.Config.stall_patience
        ~epsilon:config.Engine.Config.stall_epsilon
    in
    let prev6 = Array.make n (-1) in
    let have_prev = ref false in
    let g4 = ref 0.0 and g6 = ref 0.0 and book = ref 0.0 in
    let iters = ref 0 and feas = ref 0 in
    let best_feasible = ref infinity and best_k = ref 0 in
    let gap_solver ~step ~k:_ ~default gap =
      let t0 = now () in
      let a = default gap in
      let t1 = now () in
      (match step with
      | Burkard.Step4 ->
        g4 := !g4 +. (t1 -. t0);
        tr.step4_ms <- (1000.0 *. (t1 -. t0)) :: tr.step4_ms
      | Burkard.Step6 ->
        g6 := !g6 +. (t1 -. t0);
        tr.step6_ms <- (1000.0 *. (t1 -. t0)) :: tr.step6_ms;
        if !have_prev then begin
          let moved = ref 0 in
          for j = 0 to n - 1 do
            if a.(j) <> prev6.(j) then incr moved
          done;
          tr.moved <- float_of_int !moved :: tr.moved
        end;
        Array.blit a 0 prev6 0 n;
        have_prev := true);
      tr.gap_calls <- tr.gap_calls + 1;
      if not (Gap.feasible gap a) then tr.overflow <- tr.overflow + 1;
      book := !book +. (now () -. t1);
      a
    in
    let last = ref 0.0 and last_words = ref 0.0 in
    let observe (it : Burkard.iteration) =
      let t = now () in
      let words = allocated_words () in
      guard it;
      incr iters;
      if it.Burkard.feasible then begin
        incr feas;
        if it.Burkard.objective < !best_feasible then begin
          best_feasible := it.Burkard.objective;
          best_k := !iters
        end
      end;
      let interval = t -. !last in
      let outside = interval -. !g4 -. !g6 -. !book in
      tr.iter_ms <- (1000.0 *. interval) :: tr.iter_ms;
      tr.outside_ms <- (1000.0 *. outside) :: tr.outside_ms;
      tr.alloc_mb <- ((words -. !last_words) *. 8.0 /. 1e6) :: tr.alloc_mb;
      tr.layer_sum_s <- tr.layer_sum_s +. !g4 +. !g6 +. outside;
      g4 := 0.0;
      g6 := 0.0;
      book := 0.0;
      last_words := allocated_words ();
      last := now ()
    in
    last_words := allocated_words ();
    last := now ();
    let t0 = !last in
    let r =
      Adaptive.solve ~config:config.Engine.Config.qbp ~max_rounds:config.Engine.Config.max_rounds
        ~factor:config.Engine.Config.penalty_factor ~initial:i.start ~should_stop:stalled ~observe
        ~gap_solver i.problem
    in
    tr.mirror_s <- tr.mirror_s +. (now () -. t0);
    tr.iters <- tr.iters + !iters;
    tr.feasible_iters <- tr.feasible_iters + !feas;
    tr.rounds <- tr.rounds + List.length r.Adaptive.rounds;
    tr.best_at <- ratio (float_of_int !best_k) (float_of_int !iters) :: tr.best_at;
    (* the mirror must reproduce the engine's QBP stage bit for bit:
       the stage adopts the best feasible answer only on a strict
       improvement over the warm start *)
    let mirrored =
      match r.Adaptive.best_feasible with
      | Some (a, _) ->
        let c = Problem.objective i.problem a in
        if c < i.start_cost && Problem.feasible i.problem a then c else i.start_cost
      | None -> i.start_cost
    in
    attempt (mirrored = stage_cost) "%s: traced QBP objective %.17g differs from untraced %.17g"
      i.name mirrored stage_cost

(* standalone kernel calls on one instance at its start assignment *)
let kernels (i : inst) =
  let p = i.problem in
  let n = Problem.n p and m = Problem.m p in
  let cfg = Burkard.Config.default in
  let q = Qmatrix.make ~penalty:cfg.Burkard.Config.penalty p in
  let eta = Array.make (n * m) 0.0 in
  let eta_s = kernel_time (fun () -> Qmatrix.eta_into q i.start eta) in
  let a = Assignment.copy i.start in
  let loads = Array.make m 0.0 and scratch = Array.make m 0.0 in
  let prepare () =
    Array.blit i.start 0 a 0 n;
    let l = Assignment.loads p.Problem.netlist ~m a in
    Array.blit l 0 loads 0 m
  in
  let polish_s =
    kernel_time ~prepare (fun () -> ignore (Repair.coordinate_pass q a ~loads ~scratch))
  in
  let pen_s =
    kernel_time (fun () ->
        ignore (Problem.penalized_objective p ~penalty:cfg.Burkard.Config.penalty i.start))
  in
  Qmatrix.eta_into q i.start eta;
  let weight = Gap.uniform_weights ~sizes:(Netlist.sizes p.Problem.netlist) ~m in
  let gap = Gap.borrow ~cost:eta ~weight ~capacity:(Topology.capacities p.Problem.topology) ~n in
  let ws = Mthg.workspace ~m ~n in
  let mthg_s =
    kernel_time (fun () ->
        ignore
          (Mthg.solve_relaxed ~ws ~criteria:cfg.Burkard.Config.gap_criteria
             ~improve:cfg.Burkard.Config.gap_improve gap))
  in
  [
    metric "qmatrix.eta_into_ms" "ms" (1000.0 *. eta_s);
    metric "repair.polish_pass_ms" "ms" (1000.0 *. polish_s);
    metric "problem.penalized_objective_ms" "ms" (1000.0 *. pen_s);
    metric "mthg.solve_relaxed_ms" "ms" (1000.0 *. mthg_s);
  ]

(* [baselines] is one GFM/GKL pass (empty lists where the workload runs
   no baselines) *)
let trace_metrics ~setup ~config ~kernel_inst ~baselines insts =
  let tr = new_trace () in
  List.iter (trace_instance tr config) insts;
  let gfm_wall = sum (List.map (fun c -> c.wall) baselines.gfm) in
  let gkl_wall = sum (List.map (fun c -> c.wall) baselines.gkl) in
  let fst_sum l = float_of_int (List.fold_left (fun acc c -> acc + fst c.extra) 0 l) in
  let snd_sum l = float_of_int (List.fold_left (fun acc c -> acc + snd c.extra) 0 l) in
  [
    metric "netlist.parse_s" "s" setup.parse_nl;
    metric "timing.parse_s" "s" setup.parse_tim;
    metric "qbp.problem_make_s" "s" setup.make;
    metric "engine.initial_s" "s" tr.initial_s;
    metric "engine.qbp_stage_s" "s" tr.qbp_stage_s;
    metric "engine.fallbacks" "count" (float_of_int tr.fallbacks);
    metric "certify.check_s" "s" tr.certify_s;
    metric "burkard.iterations" "count" (float_of_int tr.iters);
    metric "burkard.rounds" "count" (float_of_int tr.rounds);
    metric "burkard.iters_per_s" "1/s" (ratio (float_of_int tr.iters) tr.mirror_s);
    metric "burkard.iter_ms_p50" "ms" (median tr.iter_ms);
    metric "burkard.outside_gap_ms_p50" "ms" (median tr.outside_ms);
    metric "burkard.feasible_iter_ratio" "ratio"
      (ratio (float_of_int tr.feasible_iters) (float_of_int tr.iters));
    metric "burkard.best_at_iter" "ratio" (mean tr.best_at);
    metric "burkard.alloc_mb_per_iter" "MB" (median tr.alloc_mb);
    metric "gap.calls" "count" (float_of_int tr.gap_calls);
    metric "gap.step4_ms_p50" "ms" (median tr.step4_ms);
    metric "gap.step6_ms_p50" "ms" (median tr.step6_ms);
    metric "gap.overflow_ratio" "ratio"
      (ratio (float_of_int tr.overflow) (float_of_int tr.gap_calls));
    metric "eta.moved_p50" "count" (median tr.moved);
    metric "trace.remainder_frac" "ratio" (ratio (tr.qbp_stage_s -. tr.layer_sum_s) tr.qbp_stage_s);
    metric "trace.overhead_ratio" "ratio" (ratio tr.mirror_s tr.qbp_stage_s);
  ]
  @ kernels kernel_inst
  @ [
      metric "gfm.passes" "count" (fst_sum baselines.gfm);
      metric "gfm.moves_per_s" "1/s" (ratio (snd_sum baselines.gfm) gfm_wall);
      metric "gkl.outer_loops" "count" (fst_sum baselines.gkl);
      metric "gkl.swaps_per_s" "1/s" (ratio (snd_sum baselines.gkl) gkl_wall);
    ]

(* served-path layers are not exercised by the local workloads *)
let served_layer_names =
  [
    ("server.admit_ms_p50", "ms"); ("server.queue_wait_s_p50", "s"); ("server.solve_s_p50", "s");
    ("server.residual_ms_p50", "ms"); ("server.rejected", "count"); ("server.jobs_per_s", "1/s");
    ("server.submit_tail_s", "s"); ("protocol.encode_submit_ms", "ms");
    ("protocol.decode_job_ms", "ms"); ("session.warm_hit_ratio", "ratio");
    ("session.cold_fallbacks", "count"); ("session.eco_p50_s", "s"); ("session.eco_tail_s", "s");
    ("session.eco_wall_ms_p50", "ms"); ("session.residual_ms_p50", "ms"); ("delta.apply_us", "us");
  ]

let served_layers_absent = List.map (fun (n, u) -> metric n u 0.0) served_layer_names

(* ------------------------------------------------------------------ *)
(* end-to-end reporting.  The gated metrics are the ones every workload
   produces with one meaning: set-up time, time to a certified QBP
   answer, QBP's improvement over the start, and peak memory.  The
   workload-specific columns (GFM/GKL, served throughput and tails, the
   failure share) are printed alongside. *)

let failed_frac () = ratio (float_of_int !failed) (float_of_int (max 1 !attempted))

let end_to_end ?(extra = []) ~setup_s ~solve_s ~qbp_impr () =
  let rss = peak_rss_mb () in
  print_table "end-to-end"
    ([
       ("setup_s", setup_s, "s", `Lower);
       ("solve_s", solve_s, "s", `Lower);
       ("qbp_improvement_pct", qbp_impr, "%", `Higher);
     ]
    @ extra
    @ [ ("failed_frac", failed_frac (), "ratio", `Lower); ("peak_rss_mb", rss, "MB", `Lower) ]);
  [
    metric "setup_s" "s" setup_s;
    metric "solve_s" "s" solve_s;
    metric "qbp_improvement_pct" "%" qbp_impr;
    metric "peak_rss_mb" "MB" rss;
  ]

let print_layers ms =
  print_table "per-layer" (List.map (fun m -> (m.m_name, m.value, m.unit_, `None)) ms)

(* ------------------------------------------------------------------ *)
(* local workloads                                                     *)

(* each set-up layer summarised over the repetitions by [stat] *)
let setup_summary stat reps =
  let over f = stat (List.map f reps) in
  {
    parse_nl = over (fun s -> s.parse_nl);
    parse_tim = over (fun s -> s.parse_tim);
    make = over (fun s -> s.make);
    total = over (fun s -> s.total);
  }

let minimum l = List.fold_left Float.min infinity l

(* [expect] is the instance hashes the sources must build to; by default
   the first set-up's *)
let local_workload ?expect ~trace ~seconds ~pass_s ~baselines ~setup_reps ~config srcs =
  (* every pass solves freshly built instances, as a caller's first solve
     does (lazily built problem structures included), so a set-up
     precedes each pass; [setup_reps] more up front add set-up samples *)
  let reps = ref [] and expected = ref expect in
  let set_up () =
    (* each set-up starts from a collected heap, as a caller's first
       parse does: otherwise the previous pass's garbage decides how
       much collector work lands inside the timed set-up *)
    Gc.full_major ();
    let (insts, s), wall, ref_s = scaled (fun () -> build_all srcs) in
    let k = ref_s /. wall in
    reps :=
      { parse_nl = k *. s.parse_nl; parse_tim = k *. s.parse_tim; make = k *. s.make;
        total = k *. s.total }
      :: !reps;
    let hashes = List.map (fun i -> i.hash) insts in
    (match !expected with
    | None -> expected := Some hashes
    | Some h ->
      attempt (h = hashes) "set-up built instance hash(es) %s, expected %s"
        (String.concat "," (List.map hash_hex hashes))
        (String.concat "," (List.map hash_hex h)));
    insts
  in
  for _ = 1 to setup_reps do
    ignore (set_up ())
  done;
  let insts = set_up () in
  List.iter
    (fun i ->
      Printf.printf "instance %-9s N=%-6d M=%-3d budgets=%-6d start=%.1f hash=%s\n" i.name
        (Problem.n i.problem) (Problem.m i.problem)
        (Constraints.count i.problem.Problem.constraints)
        i.start_cost (hash_hex i.hash))
    insts;
  if trace then begin
    (* the baselines run on instances of their own, so the engine solves
       below still start from freshly built problems *)
    let base f = if baselines then List.map f (set_up ()) else [] in
    let baselines = { qbp = []; gfm = base solve_gfm; gkl = base solve_gkl } in
    let ms =
      trace_metrics ~setup:(setup_summary median !reps) ~config ~kernel_inst:(List.hd insts)
        ~baselines insts
      @ served_layers_absent
    in
    print_layers ms;
    ms
  end
  else begin
    (* a fixed amount of work per run, sized from --seconds at the
       nominal pass time: a faster solver finishes sooner instead of
       taking more samples *)
    let passes = max 3 (int_of_float (Float.round (seconds /. pass_s))) in
    let passes = measure_passes ~baselines ~passes ~fresh:set_up config insts in
    let solve_s = qbp_ref_time insts passes in
    Printf.printf "%d passes over %d instance(s); %d host probes, %.1f-%.1f ms (reference %.1f ms)\n"
      (List.length passes) (List.length insts) (List.length !probes)
      (1000.0 *. minimum !probes) (1000.0 *. List.fold_left Float.max 0.0 !probes)
      (1000.0 *. probe_ref_s);
    let first = List.hd passes in
    let qbp_impr = improvement insts first.qbp in
    List.iteri
      (fun k (i : inst) ->
        let c l = match List.nth_opt l k with Some c -> Printf.sprintf "%.1f" c.cost | None -> "-" in
        let walls f =
          String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (f (List.nth p.qbp k))) passes)
        in
        Printf.printf "  %-9s start %.1f  qbp %s  gfm %s  gkl %s\n    qbp wall s %s\n    qbp ref s  %s\n"
          i.name i.start_cost (c first.qbp) (c first.gfm) (c first.gkl)
          (walls (fun c -> c.wall)) (walls (fun c -> c.ref_s)))
      insts;
    let extra =
      if not baselines then []
      else
        let wall l = sum (List.map (fun c -> c.wall) l) in
        [
          ("gfm_s", wall first.gfm, "s", `Lower);
          ("gkl_s", wall first.gkl, "s", `Lower);
          ("gfm_improvement_pct", improvement insts first.gfm, "%", `Higher);
          ("gkl_improvement_pct", improvement insts first.gkl, "%", `Higher);
        ]
    in
    end_to_end ~extra ~setup_s:(setup_summary median !reps).total ~solve_s ~qbp_impr ()
  end

let paper_table3 ~trace ~seconds ~tiny ~inputs =
  let srcs = table3_sources ~tiny inputs in
  (* the CLI path: engine defaults, one start from the shared start *)
  let config = Engine.Config.default in
  local_workload ~trace ~seconds ~pass_s:3.2 ~baselines:true ~setup_reps:12 ~config srcs

let synth_iterations = 2

let synth10k_warm ~trace ~seconds ~tiny =
  let src, generated_hash = synth_source ~tiny in
  let config =
    {
      Engine.Config.default with
      qbp = { Burkard.Config.default with iterations = synth_iterations };
      inner_jobs = 1;
    }
  in
  (* the text hand-over must reproduce the generated instance exactly *)
  local_workload ~expect:[ generated_hash ] ~trace ~seconds ~pass_s:3.6 ~baselines:false
    ~setup_reps:4 ~config [ src ]

(* ------------------------------------------------------------------ *)
(* served_eco                                                          *)

let served_rows = 2
let served_cols = 2
let served_slack = 1.3
(* cold jobs cycle through a fixed set of seeds, the same for every
   workload seed: the cold work is identical across runs and the
   workload seed varies the ECO delta stream *)
let job_seeds = 16

(* client A runs a fixed number of jobs, sized from --seconds at a
   nominal 4 jobs/s rather than bounded by the clock: the daemon keeps
   every finished job in its table, so a clock-bound loop would make
   peak memory track throughput *)
let jobs_per_seed seconds =
  max 1 (int_of_float (Float.ceil (seconds *. 4.0 /. float_of_int job_seeds)))
let deltas_per_session = 64

(* client B's think time between deltas.  ECO requests are solved on the
   daemon's connection threads, which share the main domain with every
   other connection's I/O (client A's Events stream included): a
   saturating ECO loop would turn the cold-job latency into a measure of
   ECO lock hold times *)
let eco_think_s = 0.02

let cold_spec ~text ~seed =
  {
    (Protocol.default_submit ~netlist:(Protocol.Inline text)) with
    Protocol.rows = served_rows;
    cols = served_cols;
    slack = served_slack;
    iterations = 30;
    seed;
    starts = 3;
    evolve = true;
    (* one start per generation: the evolve search stays on the
       worker's own domain, so the daemon never runs more than two busy
       domains (the worker and the ECO connection thread) *)
    generations = 3;
  }

let session_spec ~text ~seed =
  {
    (Protocol.default_submit ~netlist:(Protocol.Inline text)) with
    Protocol.rows = served_rows;
    cols = served_cols;
    slack = served_slack;
    iterations = 30;
    seed;
  }

(* the retime stream one session applies: deterministic in the seed;
   budget 1 binds on the 2x2 grid's diagonal, larger budgets never do *)
let delta_texts ~seed nl =
  let rng = Random.State.make [| seed; 0xec0 |] in
  let n = Netlist.n nl in
  let name j = Component.name (Netlist.component nl j) in
  List.init deltas_per_session (fun d ->
      let a = Random.State.int rng n in
      let b = (a + 1 + Random.State.int rng (n - 1)) mod n in
      let budget = if d mod 4 = 0 then 1.0 else float_of_int (2 + (d mod 3)) in
      Printf.sprintf "retime %s %s %g\n" (name a) (name b) budget)

type job_obs = {
  j_seed : int;
  admit_s : float;
  latency_s : float;
  view : Protocol.job_view;
}

type eco_obs = { e_index : int; e_latency : float; e_view : Protocol.eco_view }

let connect addr =
  match Client.connect addr with Ok c -> c | Error e -> failwith ("connect: " ^ e)

(* client A: closed loop of [total] cold jobs, each timed from Submit to
   the terminal Job frame of its Events stream; it raises [stop] for
   client B when done *)
let cold_client ~addr ~text ~seed0 ~total ~stop results =
  Fun.protect ~finally:(fun () -> Atomic.set stop true) @@ fun () ->
  let c = connect addr in
  for k = 0 to total - 1 do
    let seed = seed0 + (k mod job_seeds) in
    let t0 = now () in
    match Client.call c (Protocol.Submit (cold_spec ~text ~seed)) with
    | Ok (Protocol.Submitted { job; _ }) -> (
      let admit = now () -. t0 in
      let rec until_job r =
        match r with
        | Ok (Protocol.Event _) -> until_job (Client.read_response c)
        | Ok (Protocol.Job v) -> Ok v
        | Ok r -> Error (Format.asprintf "unexpected %a" Protocol.pp_response r)
        | Error e -> Error e
      in
      match until_job (Client.call c (Protocol.Events { job; since = 0 })) with
      | Ok v ->
        let latency = now () -. t0 in
        results := { j_seed = seed; admit_s = admit; latency_s = latency; view = v } :: !results
      | Error e -> attempt false "job %s: %s" job e)
    | Ok r -> attempt false "submit refused: %s" (Format.asprintf "%a" Protocol.pp_response r)
    | Error e -> attempt false "submit: %s" e
  done;
  Client.close c

(* client B: closed loop of ECO sessions — open, stream the retime
   deltas one at a time, close *)
let eco_client ~addr ~text ~seed ~deltas ~stop opens results =
  let c = connect addr in
  let call req =
    match Client.call c req with
    | Ok (Protocol.Eco_result v) -> Ok v
    | Ok r -> Error (Format.asprintf "unexpected %a" Protocol.pp_response r)
    | Error e -> Error e
  in
  while not (Atomic.get stop) do
    match call (Protocol.Session_open (session_spec ~text ~seed)) with
    | Error e -> attempt false "session open: %s" e
    | Ok v0 ->
      opens := v0 :: !opens;
      let sid = v0.Protocol.eco_session in
      List.iteri
        (fun d delta ->
          if not (Atomic.get stop) then begin
            let t0 = now () in
            match
              call (Protocol.Eco_submit { session = sid; seq = d + 1; delta; force_cold = false })
            with
            | Ok v ->
              results := { e_index = d; e_latency = now () -. t0; e_view = v } :: !results;
              Thread.delay eco_think_s
            | Error e -> attempt false "eco delta %d: %s" (d + 1) e
          end)
        deltas;
      (match Client.call c (Protocol.Session_close sid) with
      | Ok (Protocol.Session_closed _) -> ()
      | Ok r -> attempt false "session close: %s" (Format.asprintf "%a" Protocol.pp_response r)
      | Error e -> attempt false "session close: %s" e)
  done;
  Client.close c

let start_daemon ~workdir =
  let socket_path = Filename.concat workdir "qbpartd.sock" in
  let config =
    {
      (Server.default_config ~socket_path) with
      Server.workers = 1;
      max_queue = 16;
      checkpoint_dir = workdir;
    }
  in
  match Server.create config with
  | Error e -> failwith ("daemon: " ^ e)
  | Ok s -> (s, Thread.create Server.serve s, Client.Unix_socket socket_path)

let stop_daemon (s, th, _) =
  Server.request_drain s;
  Thread.join th

(* daemon set-ups before the load, and again after it *)
let served_setup_reps = 8

let served_eco ~trace ~seconds ~seed ~inputs ~workdir =
  let src = List.hd (table3_sources ~tiny:true inputs) in
  let text = src.net in
  let seed0 = 1 in
  (* set-up: the daemon's own parse and problem construction of the
     submitted instance, then daemon start and two connections *)
  let reps = ref [] in
  let setup_once () =
    let t0 = now () in
    let nl = get "ckta" (Result.map_error Parser.error_to_string (Parser.parse_string text)) in
    let t1 = now () in
    let problem =
      match Scheduler.problem_of_spec (cold_spec ~text ~seed:seed0) with
      | Ok p -> p
      | Error (_, m) -> failwith m
    in
    let t2 = now () in
    let d = start_daemon ~workdir in
    let _, _, addr = d in
    Client.close (connect addr);
    Client.close (connect addr);
    let t3 = now () in
    reps := { parse_nl = t1 -. t0; parse_tim = 0.0; make = t2 -. t1; total = t3 -. t0 } :: !reps;
    (nl, problem, d)
  in
  (* the set-up repeats before and after the load, and its fastest
     repetition is reported: daemon start and the two connects are
     thread wake-ups, which the host probe does not track, and host
     noise only ever adds to them *)
  let set_up_and_stop () =
    let _, _, d = setup_once () in
    stop_daemon d
  in
  for _ = 1 to served_setup_reps do
    set_up_and_stop ()
  done;
  let nl, problem, daemon = setup_once () in
  let _, _, addr = daemon in
  let hash = Checkpoint.instance_hash problem in
  Printf.printf "instance ckta N=%d M=%d (2x2, slack %.2f) hash=%s; daemon: 1 worker, 2 clients\n"
    (Problem.n problem) (Problem.m problem) served_slack (hash_hex hash);
  let deltas = delta_texts ~seed nl in
  (* the closed loop *)
  let stop = Atomic.make false in
  let jobs = ref [] and ecos = ref [] and opens = ref [] in
  let total = job_seeds * jobs_per_seed (if trace then Float.min seconds 10.0 else seconds) in
  let t0 = now () in
  let ta = Thread.create (fun () -> cold_client ~addr ~text ~seed0 ~total ~stop jobs) () in
  let tb = Thread.create (fun () -> eco_client ~addr ~text ~seed ~deltas ~stop opens ecos) () in
  Thread.join ta;
  Thread.join tb;
  let elapsed = now () -. t0 in
  let snapshot =
    match Client.request addr Protocol.Metrics with
    | Ok (Protocol.Metrics_snapshot m) -> Some m
    | _ -> None
  in
  stop_daemon daemon;
  for _ = 1 to served_setup_reps do
    set_up_and_stop ()
  done;
  let setup = setup_summary minimum !reps in
  let jobs = List.rev !jobs and ecos = List.rev !ecos in
  (* re-validate every cold answer against a local parse of the same
     submission, and every ECO answer against the locally replayed
     delta chain (whose instance hash must match the daemon's) *)
  List.iter
    (fun j ->
      let v = j.view in
      attempt
        (v.Protocol.state = Protocol.Done && v.Protocol.certified = Some true)
        "job %s: state %s, certified %s" v.Protocol.id
        (Protocol.job_state_to_string v.Protocol.state)
        (match v.Protocol.certified with Some b -> string_of_bool b | None -> "none");
      match (v.Protocol.assignment, v.Protocol.cost) with
      | Some a, Some c -> revalidate ("job " ^ v.Protocol.id) problem a c
      | _ -> attempt false "job %s: no answer" v.Protocol.id)
    jobs;
  let chain =
    let rec go p acc = function
      | [] -> List.rev acc
      | text :: rest -> (
        match Delta.parse_string text with
        | Error e -> failwith (Delta.error_to_string e)
        | Ok d -> (
          match Problem.apply_delta p d with
          | Error e -> failwith (Delta.error_to_string e)
          | Ok r -> go r.Problem.dr_problem (r.Problem.dr_problem :: acc) rest))
    in
    Array.of_list (go problem [] deltas)
  in
  let chain_hash = Array.map Checkpoint.instance_hash chain in
  List.iter
    (fun e ->
      let v = e.e_view in
      let p = chain.(e.e_index) in
      let served_hash = Int64.of_string_opt ("0x" ^ v.Protocol.eco_instance) in
      attempt
        (v.Protocol.eco_certified && served_hash = Some chain_hash.(e.e_index))
        "eco delta %d: certified %b, instance %s vs replayed %s" (e.e_index + 1)
        v.Protocol.eco_certified v.Protocol.eco_instance (hash_hex chain_hash.(e.e_index));
      match v.Protocol.eco_assignment with
      | Some a -> revalidate (Printf.sprintf "eco delta %d" (e.e_index + 1)) p a v.Protocol.eco_cost
      | None -> attempt false "eco delta %d: no assignment" (e.e_index + 1))
    ecos;
  List.iter
    (fun v ->
      match v.Protocol.eco_assignment with
      | Some a -> revalidate "session open" problem a v.Protocol.eco_cost
      | None -> attempt false "session open: no assignment")
    !opens;
  (* each job seed's start: the safety net the daemon's engine builds
     (Engine.greedy_start under the engine's default attempts) *)
  let nlp = problem.Problem.netlist and topo = problem.Problem.topology in
  let starts =
    List.init job_seeds (fun k ->
        let s = seed0 + k in
        match
          Engine.greedy_start ~constraints:problem.Problem.constraints
            ~attempts:Engine.Config.default.Engine.Config.start_attempts ~seed:s nlp topo
        with
        | Ok a ->
          {
            name = Printf.sprintf "ckta-seed%d" s;
            problem;
            start = a;
            start_cost = Problem.objective problem a;
            hash;
          }
        | Error e -> failwith (Engine.Error.to_string e))
  in
  let start_cost s = (List.nth starts (s - seed0)).start_cost in
  let lat = List.map (fun j -> j.latency_s) jobs in
  let eco_lat = List.map (fun e -> e.e_latency) ecos in
  let sub_tail, sub_q, sub_n = tail lat in
  let eco_tail, eco_q, eco_n = tail eco_lat in
  let jobs_per_s = float_of_int (List.length jobs) /. elapsed in
  Printf.printf "%d cold jobs, %d ECO deltas, %d session opens in %.1fs\n" (List.length jobs)
    (List.length ecos) (List.length !opens) elapsed;
  Printf.printf "submit tail = p%.1f of %d samples; eco tail = p%.1f of %d samples\n" sub_q sub_n
    eco_q eco_n;
  let served_metrics () =
    let warm = List.length (List.filter (fun e -> e.e_view.Protocol.served = "warm") ecos) in
    let sample_job = match jobs with j :: _ -> Some j.view | [] -> None in
    let spec = cold_spec ~text ~seed:seed0 in
    let enc_s =
      kernel_time ~max_reps:100 (fun () -> ignore (Protocol.encode_request (Protocol.Submit spec)))
    in
    let dec_s =
      match sample_job with
      | None -> 0.0
      | Some v ->
        let frame = Protocol.encode_response (Protocol.Job v) in
        kernel_time ~max_reps:100 (fun () -> ignore (Protocol.decode_response frame))
    in
    let delta_s =
      kernel_time (fun () ->
          List.iter
            (fun t ->
              match Delta.parse_string t with
              | Ok d -> ignore (Delta.apply nl d)
              | Error _ -> ())
            deltas)
      /. float_of_int (List.length deltas)
    in
    let ms x = 1000.0 *. x in
    [
      metric "server.admit_ms_p50" "ms" (ms (median (List.map (fun j -> j.admit_s) jobs)));
      metric "server.queue_wait_s_p50" "s"
        (median (List.map (fun j -> j.view.Protocol.queued_seconds) jobs));
      metric "server.solve_s_p50" "s" (median (List.map (fun j -> j.view.Protocol.wall_seconds) jobs));
      metric "server.residual_ms_p50" "ms"
        (ms
           (median
              (List.map
                 (fun j ->
                   j.latency_s -. j.view.Protocol.queued_seconds -. j.view.Protocol.wall_seconds)
                 jobs)));
      metric "server.rejected" "count"
        (match snapshot with Some m -> float_of_int m.Protocol.rejected | None -> nan);
      metric "server.jobs_per_s" "1/s" jobs_per_s;
      metric "server.submit_tail_s" "s" sub_tail;
      metric "protocol.encode_submit_ms" "ms" (ms enc_s);
      metric "protocol.decode_job_ms" "ms" (ms dec_s);
      metric "session.warm_hit_ratio" "ratio"
        (ratio (float_of_int warm) (float_of_int (List.length ecos)));
      metric "session.cold_fallbacks" "count"
        (match snapshot with Some m -> float_of_int m.Protocol.eco_cold_fallbacks | None -> nan);
      metric "session.eco_p50_s" "s" (median eco_lat);
      metric "session.eco_tail_s" "s" eco_tail;
      metric "session.eco_wall_ms_p50" "ms"
        (ms (median (List.map (fun e -> e.e_view.Protocol.eco_wall) ecos)));
      metric "session.residual_ms_p50" "ms"
        (ms (median (List.map (fun e -> e.e_latency -. e.e_view.Protocol.eco_wall) ecos)));
      metric "delta.apply_us" "us" (1e6 *. delta_s);
    ]
  in
  let extra =
    [
      ("jobs_per_s", jobs_per_s, "1/s", `Higher);
      ("submit_p50_s", median lat, "s", `Lower);
      ("submit_tail_s", sub_tail, "s", `Lower);
      ("eco_p50_s", median eco_lat, "s", `Lower);
      ("eco_tail_s", eco_tail, "s", `Lower);
    ]
  in
  if jobs = [] || ecos = [] then attempt false "served load completed no job or no ECO delta";
  if trace then begin
    let config =
      {
        Engine.Config.default with
        qbp = { Burkard.Config.default with iterations = 30; seed = seed0 };
      }
    in
    let baselines = { qbp = []; gfm = []; gkl = [] } in
    let ms =
      trace_metrics ~setup ~config ~kernel_inst:(List.hd starts) ~baselines [ List.hd starts ]
      @ served_metrics ()
    in
    print_layers ms;
    ms
  end
  else begin
    (* per job seed: its improvement (a seed's jobs are deterministic,
       so every repeat must return the same cost) and its fastest
       latency: host noise pushes a solve past the next 50 ms step of
       the daemon's Events poll and only ever adds time.  solve_s is the
       mean over the seeds, which smooths that grid out *)
    let by_seed =
      List.sort_uniq compare (List.map (fun j -> j.j_seed) jobs)
      |> List.map (fun seed ->
             let mine = List.filter (fun j -> j.j_seed = seed) jobs in
             let costs = List.filter_map (fun j -> j.view.Protocol.cost) mine in
             let lat = List.fold_left (fun acc j -> Float.min acc j.latency_s) infinity mine in
             match costs with
             | [] -> (nan, lat)
             | c :: _ ->
               attempt
                 (List.for_all (fun c' -> c' = c) costs)
                 "job seed %d: repeated jobs returned different costs" seed;
               (100.0 *. (start_cost seed -. c) /. start_cost seed, lat))
    in
    let qbp_impr = mean (List.map fst by_seed) in
    end_to_end ~extra ~setup_s:setup.total ~solve_s:(mean (List.map snd by_seed)) ~qbp_impr ()
  end

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let inputs = ref "" and workdir = ref "." and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--inputs", Arg.Set_string inputs, "DIR unpacked paper_table3 input set");
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory (daemon socket, checkpoints)");
      ("--tiny", Arg.Set tiny, " self-test size");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --inputs DIR --workdir DIR";
  let trace = !trace = 1 and seconds = !seconds and tiny = !tiny and seed = !seed in
  Printf.printf "workload %s seed %d seconds %g trace %b%s\n%!" !workload seed seconds trace
    (if tiny then " (tiny)" else "");
  let metrics =
    match !workload with
    | "paper_table3" -> paper_table3 ~trace ~seconds ~tiny ~inputs:!inputs
    | "synth10k_warm" -> synth10k_warm ~trace ~seconds ~tiny
    | "served_eco" -> served_eco ~trace ~seconds ~seed ~inputs:!inputs ~workdir:!workdir
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  Printf.printf "failed_frac %.6f (%d of %d operations)\n" (failed_frac ()) !failed
    (max 1 !attempted);
  emit metrics
