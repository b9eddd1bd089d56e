(* Benchmark harness: regenerates every table and figure of the paper.

     dune exec bench/main.exe                 full run (a few minutes)
     dune exec bench/main.exe -- --quick      ckta only
     dune exec bench/main.exe -- --skip-kernels / --skip-ablations
     dune exec bench/main.exe -- --only-portfolio --json BENCH_portfolio.json
     dune exec bench/main.exe -- --only-evolve --json BENCH_evolve.json

   Sections:
     Figure 1 / section 3.3   the worked Q-hat example, entry by entry
     Table I                  circuit suite statistics
     Table II                 QBP vs GFM vs GKL without timing constraints
     Table III                same, with timing constraints
     Robustness               QBP from random starts (section 5 claim)
     Ablations                design decisions D1-D6 of DESIGN.md
     Portfolio                multi-start scaling across domain budgets
                              (outer starts x intra-solve legs) plus the
                              delta-vs-full evaluation kernels
     Evolve                   population search vs plain portfolio at
                              equal budget, plus its own scaling curve
     Kernels                  bechamel micro-benchmarks, one per
                              table-backing computation kernel

   [--json PATH] additionally writes the kernel estimates and the
   portfolio-scaling measurements as machine-readable JSON (consumed
   by CI and EXPERIMENTS.md); [--only-portfolio] runs just the
   sections that feed that file.

   Absolute numbers differ from the 1993 DECstation; EXPERIMENTS.md
   records the shape comparison. *)

module Rng = Qbpart_netlist.Rng
module Netlist = Qbpart_netlist.Netlist
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Evaluate = Qbpart_partition.Evaluate
module Gap = Qbpart_gap.Gap
module Mthg = Qbpart_gap.Mthg
module Problem = Qbpart_core.Problem
module Qmatrix = Qbpart_core.Qmatrix
module Repair = Qbpart_core.Repair
module Burkard = Qbpart_core.Burkard
module Certify = Qbpart_core.Certify
module Gains = Qbpart_baselines.Gains
module Buckets = Qbpart_baselines.Buckets
module Gfm = Qbpart_baselines.Gfm
module Gkl = Qbpart_baselines.Gkl
module Circuits = Qbpart_experiments.Circuits
module Runner = Qbpart_experiments.Runner
module Report = Qbpart_experiments.Report
module Evolve = Qbpart_evolve.Evolve

(* Minimal JSON emission — the toolchain has no JSON library and the
   bench output is flat enough not to want one. *)
module Json = struct
  type t =
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let rec emit buf indent = function
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
    | String s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (escape s))
    | List xs ->
      Buffer.add_string buf "[";
      List.iteri
        (fun k x ->
          if k > 0 then Buffer.add_string buf ", ";
          emit buf indent x)
        xs;
      Buffer.add_string buf "]"
    | Obj fields ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{";
      List.iteri
        (fun k (name, v) ->
          Buffer.add_string buf (if k > 0 then ",\n" else "\n");
          Buffer.add_string buf pad;
          Buffer.add_string buf (Printf.sprintf "\"%s\": " (escape name));
          emit buf (indent + 2) v)
        fields;
      Buffer.add_string buf "\n";
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_string buf "}"

  let to_file path t =
    let buf = Buffer.create 4096 in
    emit buf 0 t;
    Buffer.add_char buf '\n';
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Buffer.contents buf))
end

let section title =
  Format.printf "@.=============================================================@.";
  Format.printf "%s@." title;
  Format.printf "=============================================================@.@."

(* ------------------------------------------------------------------ *)
(* Figure 1 / section 3.3 *)

let figure1 () =
  section "Figure 1 / section 3.3 — the worked Q-hat example";
  let b = Netlist.Builder.create () in
  let ca = Netlist.Builder.add_component b ~name:"a" ~size:1.0 () in
  let cb = Netlist.Builder.add_component b ~name:"b" ~size:1.0 () in
  let cc = Netlist.Builder.add_component b ~name:"c" ~size:1.0 () in
  Netlist.Builder.add_wire b ca cb ~weight:5.0 ();
  Netlist.Builder.add_wire b cb cc ~weight:2.0 ();
  let nl = Netlist.Builder.build b in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity:10.0 () in
  let cb = Constraints.Builder.create ~n:3 in
  Constraints.Builder.add_sym cb 0 1 1.0;
  Constraints.Builder.add_sym cb 1 2 1.0;
  let problem = Problem.make ~constraints:(Constraints.Builder.build cb) nl topo in
  let q = Qmatrix.make ~penalty:50.0 problem in
  let dense = Qmatrix.dense q in
  let names = [| "a"; "b"; "c" |] in
  Format.printf "5 wires a-b, 2 wires b-c; D_C(a,b)=D_C(b,c)=1, D_C(a,c)=inf;@.";
  Format.printf "B = D = Manhattan distances of the 2x2 array; penalty 50.@.@.";
  Format.printf "      ";
  for j = 0 to 2 do
    for i = 1 to 4 do
      Format.printf "%3s%d " names.(j) i
    done
  done;
  Format.printf "@.";
  for r1 = 0 to 11 do
    Format.printf "%3s%d | " names.(r1 / 4) ((r1 mod 4) + 1);
    for r2 = 0 to 11 do
      if r1 = r2 then Format.printf "%4s " (Printf.sprintf "p%d%s" ((r1 mod 4) + 1) names.(r1 / 4))
      else if dense.(r1).(r2) = 0.0 then Format.printf "%4s " "-"
      else Format.printf "%4.0f " dense.(r1).(r2)
    done;
    Format.printf "@."
  done;
  Format.printf
    "@.(rows/columns follow the paper's order (a,1)(a,2)...(c,4); the 50s@.\
     embed the timing constraints, e.g. assigning a to 2 and b to 3 has@.\
     delay D(2,3)=2 > D_C(a,b)=1.)@."

(* ------------------------------------------------------------------ *)
(* Tables *)

(* The published Table II / III improvement percentages, used to print
   the shape comparison next to our measurements. *)
let paper_pct_ii =
  [ ("ckta", (15.9, 9.0, 15.6)); ("cktb", (27.2, 15.5, 20.4)); ("cktc", (26.6, 17.8, 26.8));
    ("cktd", (34.0, 12.5, 20.1)); ("ckte", (26.2, 20.9, 25.8)); ("cktf", (44.0, 27.7, 36.7));
    ("cktg", (36.5, 27.2, 26.9)) ]

let paper_pct_iii =
  [ ("ckta", (12.2, 6.8, 12.0)); ("cktb", (21.3, 14.4, 12.3)); ("cktc", (21.2, 7.1, 24.0));
    ("cktd", (23.5, 7.9, 12.7)); ("ckte", (21.0, 7.2, 15.3)); ("cktf", (34.1, 21.0, 27.3));
    ("cktg", (30.1, 21.0, 26.1)) ]

let print_shape_comparison rows paper =
  Format.printf "shape vs paper ((-%%) columns, ours | paper):@.";
  Format.printf "%-8s %18s %18s %18s@." "circuits" "QBP" "GFM" "GKL";
  List.iter
    (fun (r : Runner.row) ->
      match List.assoc_opt r.Runner.name paper with
      | None -> ()
      | Some (pq, pf, pk) ->
        Format.printf "%-8s %8.1f | %6.1f %8.1f | %6.1f %8.1f | %6.1f@." r.Runner.name
          r.Runner.qbp.Runner.improvement_pct pq r.Runner.gfm.Runner.improvement_pct pf
          r.Runner.gkl.Runner.improvement_pct pk)
    rows;
  Format.printf "@."

let tables instances =
  section "Table I — circuit descriptions";
  Report.table1 Format.std_formatter instances;
  (* one shared feasible initial per circuit, used by both tables and
     all three methods, as in the paper *)
  let initials = List.map Runner.initial_solution instances in
  let run_both with_timing =
    List.map2 (fun inst initial -> Runner.run ~with_timing ~initial inst) instances initials
  in
  section "Table II — without Timing Constraints";
  let rows2 = run_both false in
  Report.results ~title:"II. Without Timing Constraints:" Format.std_formatter rows2;
  Report.summary Format.std_formatter rows2;
  Format.printf "@.";
  print_shape_comparison rows2 paper_pct_ii;
  section "Table III — with Timing Constraints";
  let rows3 = run_both true in
  Report.results ~title:"III. With Timing Constraints:" Format.std_formatter rows3;
  Report.summary Format.std_formatter rows3;
  Format.printf "@.";
  print_shape_comparison rows3 paper_pct_iii;
  (rows2, rows3)

let robustness instances =
  section "Random-start robustness (section 5)";
  Format.printf
    "\"In our separate experiments we discovered that QBP maintained the@.\
     same kind of good results from any arbitrary initial solution.\"@.@.";
  let rs = List.map (fun inst -> Runner.random_start_robustness ~starts:3 inst) instances in
  Report.robustness Format.std_formatter rs;
  Format.printf
    "(with timing constraints a random start must also reach feasibility;@.\
     runs that do not are reported as infeasible rather than patched)@.@.";
  let rs2 =
    List.map (fun inst -> Runner.random_start_robustness ~starts:3 ~with_timing:false inst)
      instances
  in
  Format.printf "and without timing constraints (Table II setting):@.@.";
  Report.robustness Format.std_formatter rs2

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md D1-D6) *)

let ablations inst =
  section "Ablations (DESIGN.md design decisions, on ckta, Table III setting)";
  let initial = Runner.initial_solution inst in
  let run label config =
    let row = Runner.run ~with_timing:true ~qbp_config:config ~initial inst in
    Format.printf "  %-34s QBP final %8.0f  (-%4.1f%%)  %5.1fs@." label
      row.Runner.qbp.Runner.final row.Runner.qbp.Runner.improvement_pct
      row.Runner.qbp.Runner.cpu_seconds
  in
  let d = Burkard.Config.default in
  run "default (Solver eta, polish+repair)" d;
  run "D1: literal paper eta rule" { d with rule = Qmatrix.Paper };
  run "D5/D6: no polish, no repair probes"
    { d with polish_passes = 0; final_polish = 0; repair_every = 0 };
  run "D6: repair probes only every 10" { d with repair_every = 10 };
  run "D2: penalty 5" { d with penalty = 5.0 };
  run "D2: penalty 500" { d with penalty = 500.0 };
  run "D3: GAP without improvement" { d with gap_improve = `None };
  run "D3: GAP with shift+swap" { d with gap_improve = `Shift_and_swap };
  run "paper config (all enhancements off)" { Burkard.Config.paper with iterations = 100 };
  Format.printf "@.GKL baseline design (D4 in spirit — dummy padding):@.";
  let nl = inst.Circuits.netlist and topo = inst.Circuits.topology in
  let cons = inst.Circuits.constraints in
  List.iter
    (fun dummies ->
      let config = { Gkl.default_config with Gkl.dummies } in
      let t0 = Sys.time () in
      let r = Gkl.solve ~config ~constraints:cons nl topo ~initial in
      Format.printf "  GKL dummies=%d: final %8.0f  %5.1fs  (%d swaps)@." dummies r.Gkl.cost
        (Sys.time () -. t0) r.Gkl.swaps)
    [ 0; 3; 6 ]

(* ------------------------------------------------------------------ *)
(* Convergence trace (section 4.2: "similar to a line search") *)

let convergence inst =
  section "Convergence trace (ckta, Table III setting)";
  let initial = Runner.initial_solution inst in
  let problem = Circuits.problem inst in
  let result = Burkard.solve ~initial problem in
  let best = ref infinity in
  let traced =
    List.filter_map
      (fun (it : Burkard.iteration) ->
        best := Float.min !best it.Burkard.penalized;
        if it.Burkard.k mod 5 = 0 || it.Burkard.k = 1 then Some (it.Burkard.k, !best)
        else None)
      result.Burkard.history
  in
  let lo = List.fold_left (fun acc (_, c) -> Float.min acc c) infinity traced in
  let hi = List.fold_left (fun acc (_, c) -> Float.max acc c) 0.0 traced in
  Format.printf "best penalized cost so far vs iteration:@.@.";
  List.iter
    (fun (k, c) ->
      let width =
        if hi > lo then int_of_float (58.0 *. (c -. lo) /. (hi -. lo)) + 1 else 1
      in
      Format.printf "  k=%3d %8.0f %s@." k c (String.make width '#'))
    traced

(* ------------------------------------------------------------------ *)
(* Sweeps (paper prose claims) *)

let sweeps quick =
  section "Scaling (section 4.3 sparse-iteration claim)";
  Format.printf
    "\"We exploit the facts that (a) the number of partitions is very small@.\
     compared to the number of components, and (b) the interconnections@.\
     between the components are quite sparse.\"@.@.";
  let sizes = if quick then [ 100; 200; 400 ] else [ 100; 200; 400; 800 ] in
  let points = Qbpart_experiments.Sweeps.scaling ~sizes () in
  Qbpart_experiments.Sweeps.pp_scaling Format.std_formatter points;
  section "Capacity tightness sweep (the \"very tight constraints\" regime)";
  let spec = List.hd Circuits.table1 in
  let slacks = if quick then [ 1.30; 1.08 ] else [ 1.30; 1.15; 1.08; 1.05 ] in
  let points = Qbpart_experiments.Sweeps.capacity_sweep ~slacks spec in
  Qbpart_experiments.Sweeps.pp_sweep ~header:"slack" Format.std_formatter points;
  section "Iteration budget sweep (section 4.2 runtime/quality knob)";
  let inst = Circuits.build spec in
  let budgets = if quick then [ 10; 50; 100 ] else [ 5; 10; 25; 50; 100; 200 ] in
  Format.printf "with the default (enhanced) configuration:@.@.";
  let points = Qbpart_experiments.Sweeps.iteration_sweep ~budgets inst in
  Qbpart_experiments.Sweeps.pp_iteration_sweep Format.std_formatter points;
  Format.printf
    "@.pure Burkard trajectory (enhancements off — the paper's section 4.2@.\
     \"the more CPU time spent, the better the results\" regime):@.@.";
  let pure =
    { Burkard.Config.default with polish_passes = 0; final_polish = 0; repair_every = 0 }
  in
  let points =
    Qbpart_experiments.Sweeps.iteration_sweep ~budgets ~with_timing:false ~config:pure inst
  in
  Qbpart_experiments.Sweeps.pp_iteration_sweep Format.std_formatter points;
  section "Seed stability (is the shape a property of the circuit class?)";
  let specs = if quick then [ spec ] else [ spec; List.nth Circuits.table1 4 ] in
  let rows =
    List.map (fun s -> Qbpart_experiments.Sweeps.seed_stability ~with_timing:true s) specs
  in
  Qbpart_experiments.Sweeps.pp_stability Format.std_formatter rows

(* ------------------------------------------------------------------ *)
(* Bechamel kernel micro-benchmarks *)

let kernels ?(baselines_only = false) inst =
  section
    (if baselines_only then "Baseline kernel micro-benchmarks (bechamel)"
     else "Kernel micro-benchmarks (bechamel)");
  let open Bechamel in
  let open Toolkit in
  let nl = inst.Circuits.netlist and topo = inst.Circuits.topology in
  let cons = inst.Circuits.constraints in
  let n = Netlist.n nl and m = Topology.m topo in
  let problem = Problem.make ~constraints:cons nl topo in
  let q = Qmatrix.make problem in
  let rng = Rng.create 99 in
  let u = Assignment.random rng ~n ~m in
  let sizes = Netlist.sizes nl in
  let capacity = Topology.capacities topo in
  let eta = Qmatrix.eta q u in
  let eta_buf = Array.make (Qmatrix.dim q) 0.0 in
  (* the solver's actual STEP-4/6 instance shape: flat item-major cost
     (here a copy of eta, refreshed in place by the refresh row) over
     the shared uniform weights *)
  let weight = Gap.uniform_weights ~sizes ~m in
  let gap = Gap.borrow ~cost:(Array.copy eta) ~weight ~capacity ~n in
  let mws = Mthg.workspace ~m ~n in
  (* STEP 3's eta as the solver keeps it: the row cache, whole at u *)
  let rows = Repair.cache ~m ~n in
  Repair.refresh rows q u ~pool:Qbpart_pool.Dompool.sequential;
  let gains = Gains.create nl topo u in
  (* gain-bucket structure over the same maintained gains state: the
     selection rows below race it against the GFM-style row scan *)
  let buckets = Buckets.create nl topo gains in
  Buckets.reset buckets;
  let bucket_legal ~j ~target = Gains.move_fits gains topo ~j ~target in
  (* GKL swap selection in the state production runs it on: the
     instance's feasible reference (Table III tightness, slack 1.08)
     padded with GKL's dummies; the pair scan checks timing as
     Gkl.solve's Scan path does, the buckets own it *)
  let gkl_nl, gkl_start, _ =
    Gkl.with_dummies ~chunks:Gkl.default_config.Gkl.dummies nl topo inst.Circuits.reference
  in
  let gkl_n = Netlist.n gkl_nl in
  let gkl_gains = Gains.create gkl_nl topo gkl_start in
  let gkl_buckets = Buckets.create ~constraints:cons gkl_nl topo gkl_gains in
  let gkl_a = Gains.assignment gkl_gains in
  let gkl_legal ~j1 ~j2 =
    (j1 >= n
    || Qbpart_timing.Check.placement_ok cons topo ~assignment:gkl_a ~j:j1 ~at:gkl_a.(j2) ~other:j2)
    && (j2 >= n
       || Qbpart_timing.Check.placement_ok cons topo ~assignment:gkl_a ~j:j2 ~at:gkl_a.(j1)
            ~other:j1)
  in
  (* the busiest component: worst case for the O(deg) delta kernels,
     so the delta-vs-full ratio below is a lower bound *)
  let j_hot = ref 0 in
  for j = 1 to n - 1 do
    if Netlist.degree nl j > Netlist.degree nl !j_hot then j_hot := j
  done;
  let j_hot = !j_hot in
  let i_move = (u.(j_hot) + 1) mod m in
  (* a 16-component jump, the shape of a typical STEP-6 + polish move
     batch, replayed there and back by the row-cache refresh row *)
  let u_jump = Array.copy u in
  let jump = min 16 n in
  for k = 0 to jump - 1 do
    let j = k * (max 1 (n / (jump + 1))) mod n in
    u_jump.(j) <- (u.(j) + 1 + (if m > 2 then k mod (m - 1) else 0)) mod m
  done;
  let tests =
    [
      (* Table II/III inner loops *)
      Test.make ~name:"eta (STEP 3 linearization)" (Staged.stage (fun () -> Qmatrix.eta q u));
      Test.make ~name:"eta_into (reused buffer)"
        (Staged.stage (fun () -> Qmatrix.eta_into q u eta_buf));
      Test.make ~name:"row-cache refresh (2x 16-component jump)"
        (Staged.stage (fun () ->
             Repair.refresh rows q u_jump ~pool:Qbpart_pool.Dompool.sequential;
             Repair.refresh rows q u ~pool:Qbpart_pool.Dompool.sequential));
      Test.make ~name:"gap cost refresh (flat blit)"
        (Staged.stage (fun () -> Gap.refresh_cost gap eta));
      Test.make ~name:"mthg construct (STEP 4/6 GAP)"
        (Staged.stage (fun () -> Mthg.construct gap));
      Test.make ~name:"mthg construct (pooled ws)"
        (Staged.stage (fun () ->
             Mthg.solve ~ws:mws ~criteria:[ Mthg.Cost ] ~improve:`None gap));
      Test.make ~name:"mthg solve_relaxed"
        (Staged.stage (fun () -> Mthg.solve_relaxed ~criteria:[ Mthg.Cost ] ~improve:`Shift gap));
      Test.make ~name:"mthg solve_relaxed (pooled ws)"
        (Staged.stage (fun () ->
             Mthg.solve_relaxed ~ws:mws ~criteria:[ Mthg.Cost ] ~improve:`Shift gap));
      Test.make ~name:"penalized objective (full eval)"
        (Staged.stage (fun () -> Problem.penalized_objective problem ~penalty:50.0 u));
      Test.make ~name:"delta eval (one move, max-degree j)"
        (Staged.stage (fun () -> Qmatrix.delta q u ~j:j_hot ~i:i_move));
      Test.make ~name:"violations_delta (one move)"
        (Staged.stage (fun () -> Qmatrix.violations_delta q u ~j:j_hot ~i:i_move));
      Test.make ~name:"delta_objective (one move)"
        (Staged.stage (fun () -> Problem.delta_objective problem u ~j:j_hot ~i:i_move));
      Test.make ~name:"wirelength evaluation"
        (Staged.stage (fun () -> Evaluate.wirelength nl topo u));
      Test.make ~name:"timing check (all constraints)"
        (Staged.stage (fun () -> Qbpart_timing.Check.count cons topo ~assignment:u));
      (* GFM/GKL inner loops *)
      Test.make ~name:"gains move_delta row scan"
        (Staged.stage (fun () ->
             let best = ref 0.0 in
             for j = 0 to n - 1 do
               for i = 0 to m - 1 do
                 let d = Gains.move_delta gains ~j ~target:i in
                 if d < !best then best := d
               done
             done;
             !best));
      Test.make ~name:"gains apply_move + undo"
        (Staged.stage (fun () ->
             let j = 17 in
             let from = (Gains.assignment gains).(j) in
             Gains.apply_move gains ~j ~target:((from + 1) mod m);
             Gains.apply_move gains ~j ~target:from));
    ]
  in
  let baseline_tests =
    [
      (* GFM/GKL move selection: the lexicographic row scan from gfm.ml
         (delta compared first, feasibility checked lazily) vs the
         bucket best_move over the same gains state *)
      Test.make ~name:"gains move selection (row scan)"
        (Staged.stage (fun () ->
             let a = Gains.assignment gains in
             let best_j = ref (-1) and best_i = ref (-1) in
             let best_d = ref infinity in
             for j = 0 to n - 1 do
               let from = a.(j) in
               for i = 0 to m - 1 do
                 if i <> from then begin
                   let d = Gains.move_delta gains ~j ~target:i in
                   if d < !best_d && Gains.move_fits gains topo ~j ~target:i then begin
                     best_d := d;
                     best_j := j;
                     best_i := i
                   end
                 end
               done
             done;
             (!best_j, !best_i)));
      Test.make ~name:"gains move selection (buckets)"
        (Staged.stage (fun () -> Buckets.best_move buckets ~legal:bucket_legal));
      (* the GKL pair scan of gkl.ml (delta first, capacity and timing
         checked lazily) vs the bucket best_swap over the same state *)
      Test.make ~name:"gkl swap selection (pair scan)"
        (Staged.stage (fun () ->
             let best_j1 = ref (-1) and best_j2 = ref (-1) in
             let best_d = ref infinity in
             for j1 = 0 to gkl_n - 1 do
               for j2 = j1 + 1 to gkl_n - 1 do
                 if gkl_a.(j1) <> gkl_a.(j2) then begin
                   let d = Gains.swap_delta gkl_gains ~j1 ~j2 in
                   if
                     d < !best_d
                     && Gains.swap_fits gkl_gains topo ~j1 ~j2
                     && gkl_legal ~j1 ~j2
                   then begin
                     best_d := d;
                     best_j1 := j1;
                     best_j2 := j2
                   end
                 end
               done
             done;
             (!best_j1, !best_j2)));
      Test.make ~name:"gkl swap selection (buckets)"
        (Staged.stage (fun () -> Buckets.best_swap gkl_buckets));
      (* the Burkard default GAP path: MTHG with the two-criteria
         cascade *)
      Test.make ~name:"mthg solve_relaxed (cost+weight, pooled ws)"
        (Staged.stage (fun () ->
             Mthg.solve_relaxed ~ws:mws ~criteria:[ Mthg.Cost; Mthg.Weight ] ~improve:`Shift
               gap));
    ]
  in
  let tests = if baselines_only then baseline_tests else tests @ baseline_tests in
  let benchmark test =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let instances = Instance.[ monotonic_clock ] in
    (* The old 0.25s quota put millisecond kernels under the noise
       floor of a shared machine: the reused-buffer eta_into repeatably
       measured ~8% *slower* than the allocating eta, a pure harness
       artifact (too few samples for the OLS fit).  A 1s quota and a
       larger sample cap settle the fit; the first [Benchmark.all] runs
       of each staged closure serve as warmup. *)
    let cfg = Benchmark.cfg ~limit:4000 ~quota:(Time.second 1.0) ~stabilize:false () in
    let raw = Benchmark.all cfg instances test in
    Analyze.all ols (List.hd instances) raw
  in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
            Format.printf "  %-42s %14.0f ns/run@." name est;
            estimates := (name, est) :: !estimates
          | _ -> Format.printf "  %-42s (no estimate)@." name)
        results)
    tests;
  let estimates = List.rev !estimates in
  (match
     ( List.assoc_opt "penalized objective (full eval)" estimates,
       List.assoc_opt "delta eval (one move, max-degree j)" estimates )
   with
  | Some full, Some delta when delta > 0.0 ->
    Format.printf "@.  delta-evaluation speedup over full recompute: %.0fx@." (full /. delta)
  | _ -> ());
  (match
     ( List.assoc_opt "row-cache refresh (2x 16-component jump)" estimates,
       List.assoc_opt "mthg construct (pooled ws)" estimates,
       List.assoc_opt "mthg solve_relaxed (pooled ws)" estimates,
       List.assoc_opt "eta_into (reused buffer)" estimates,
       List.assoc_opt "mthg construct (STEP 4/6 GAP)" estimates,
       List.assoc_opt "mthg solve_relaxed" estimates )
   with
  | Some refresh, Some c, Some s, Some eta_full, Some c0, Some s0 ->
    let now = (refresh /. 2.0) +. c +. s and before = eta_full +. c0 +. s0 in
    Format.printf
      "  per-iteration inner loop (eta row refresh + construct + solve):@.\
      \    row cache+pooled %8.0f ns   recompute+allocating %8.0f ns   (%.1fx)@."
      now before (before /. Float.max 1.0 now)
  | _ -> ());
  (match
     ( List.assoc_opt "gains move selection (row scan)" estimates,
       List.assoc_opt "gains move selection (buckets)" estimates )
   with
  | Some scan, Some buck when buck > 0.0 ->
    Format.printf "  bucket move selection speedup over row scan: %.1fx@." (scan /. buck)
  | _ -> ());
  (match
     ( List.assoc_opt "gkl swap selection (pair scan)" estimates,
       List.assoc_opt "gkl swap selection (buckets)" estimates )
   with
  | Some scan, Some buck when buck > 0.0 ->
    Format.printf "  bucket swap selection speedup over pair scan: %.1fx@." (scan /. buck)
  | _ -> ());
  estimates

(* ------------------------------------------------------------------ *)
(* Parallel portfolio scaling (multi-start QBP on OCaml 5 domains) *)

let portfolio quick =
  section "Parallel portfolio scaling (multi-start QBP)";
  let spec =
    if quick then List.hd Circuits.table1
    else
      (* cktf: the largest bundled circuit *)
      List.fold_left
        (fun acc (s : Circuits.spec) -> if s.Circuits.n > acc.Circuits.n then s else acc)
        (List.hd Circuits.table1) Circuits.table1
  in
  let inst = Circuits.build spec in
  let problem = Circuits.problem ~with_timing:true inst in
  (* same shared feasible initial as the tables; start 0 is warm *)
  let initial = Runner.initial_solution inst in
  let starts = 8 in
  let iterations = if quick then 15 else 40 in
  let config = { Burkard.Config.default with iterations; seed = 7 } in
  Format.printf "circuit %s (N=%d), %d starts, %d iterations each, base seed %d@."
    spec.Circuits.name spec.Circuits.n starts iterations config.Burkard.Config.seed;
  let recommended = Evolve.default_jobs () in
  Format.printf "recommended domain count on this machine: %d@.@." recommended;
  (* end-to-end iteration throughput of the full inner loop
     (STEP 3 patch, aliased STEP-4/6 GAPs, polish, repair probes) on a
     pooled workspace — the per-iteration number the kernel rows
     decompose *)
  let iterations_per_sec =
    let ws = Burkard.Workspace.create problem in
    let count = ref 0 in
    let t0 = Unix.gettimeofday () in
    ignore
      (Burkard.solve ~config ~initial ~observe:(fun _ -> incr count) ~workspace:ws problem);
    let wall = Unix.gettimeofday () -. t0 in
    float_of_int !count /. Float.max 1e-9 wall
  in
  Format.printf "end-to-end Burkard iterations/sec (single start, pooled): %.1f@.@."
    iterations_per_sec;
  let run jobs inner_jobs =
    let t0 = Unix.gettimeofday () in
    let r =
      Evolve.solve ~config ~max_rounds:2 ~jobs ~inner_jobs ~starts ~generations:1 ~initial
        problem
    in
    (Unix.gettimeofday () -. t0, r)
  in
  let base_wall, base = run 1 1 in
  (* the full 1/2/4/8-domain curve, every row measured for real on
     this machine with the budget split across outer starts ([jobs])
     and intra-solve legs ([inner_jobs]).  Rows past the recommended
     domain count are flagged oversubscribed instead of dropped: on a
     small box they honestly show the multiplexing cost, and they
     double as the determinism cross-check *)
  let budgets =
    if quick then [ (2, 1); (1, 2); (2, 2) ] else [ (2, 1); (1, 2); (4, 1); (2, 2); (8, 1) ]
  in
  let row jobs inner_jobs wall (r : Evolve.result) identical =
    (* independent certifier cross-check: the champion's reported cost
       must match a from-scratch audit bit-for-bit (no delta kernels) *)
    let certified =
      match r.Evolve.best_feasible with
      | Some (a, c) -> Certify.ok (Certify.check ~claimed:c problem a)
      | None -> true
    in
    let total = jobs * inner_jobs in
    Format.printf
      "  jobs=%d x inner=%d (%d domains)  %7.2fs  speedup %4.2fx  best %12.1f  feasible %s  %s%s@."
      jobs inner_jobs total wall (base_wall /. wall) r.Evolve.best_cost
      (match r.Evolve.best_feasible with
      | Some (_, c) -> Printf.sprintf "%.1f" c
      | None -> "-")
      (if identical then "identical to 1 domain" else "MISMATCH vs 1 domain")
      (if certified then "" else "  CERTIFICATION FAILED");
    Json.Obj
      [
        ("jobs", Json.Int jobs);
        ("inner_jobs", Json.Int inner_jobs);
        ("total_domains", Json.Int total);
        ("wall_seconds", Json.Float wall);
        ("speedup_vs_jobs1", Json.Float (base_wall /. wall));
        ("best_cost", Json.Float r.Evolve.best_cost);
        ( "feasible_cost",
          match r.Evolve.best_feasible with
          | Some (_, c) -> Json.Float c
          | None -> Json.Bool false );
        ("winner", match r.Evolve.winner with Some w -> Json.Int w | None -> Json.Int (-1));
        ("identical_to_jobs1", Json.Bool identical);
        ("certified", Json.Bool certified);
        ("oversubscribed", Json.Bool (total > recommended));
      ]
  in
  let rows = ref [ row 1 1 base_wall base true ] in
  List.iter
    (fun (jobs, inner_jobs) ->
      let wall, r = run jobs inner_jobs in
      let identical =
        r.Evolve.best_cost = base.Evolve.best_cost
        && r.Evolve.best = base.Evolve.best
        && r.Evolve.winner = base.Evolve.winner
        && Option.map snd r.Evolve.best_feasible
           = Option.map snd base.Evolve.best_feasible
      in
      rows := row jobs inner_jobs wall r identical :: !rows)
    budgets;
  Format.printf
    "@.(speedups are bounded by the physical core count; the reduction@.\
     is deterministic, so every row must report the same champion@.\
     whatever the jobs x inner_jobs split)@.";
  Json.Obj
    [
      ("circuit", Json.String spec.Circuits.name);
      ("components", Json.Int spec.Circuits.n);
      ("starts", Json.Int starts);
      ("iterations", Json.Int iterations);
      ("base_seed", Json.Int config.Burkard.Config.seed);
      ("recommended_domains", Json.Int recommended);
      ("iterations_per_sec", Json.Float iterations_per_sec);
      ("runs", Json.List (List.rev !rows));
    ]

(* ------------------------------------------------------------------ *)
(* Evolve population search vs the plain portfolio at equal budget
   (DESIGN.md D12): same circuits, same total starts, same iteration
   budget, same base seed — evolve merely spends the later starts on
   recombined elites instead of fresh seeds.  The certified champion
   objective per circuit lands in evolve_summary (CI gates it against
   the committed baseline; *_obj is lower-better in compare.exe), and
   every row carries the evolve_not_worse / certified booleans the CI
   greps pin. *)

let evolve_bench quick =
  section "Evolve population search vs plain portfolio (equal budget)";
  let specs = if quick then [ List.hd Circuits.table1 ] else Circuits.table1 in
  let starts = 8 in
  let generations = 4 and pool_size = 8 in
  let iterations = if quick then 10 else 30 in
  let config = { Burkard.Config.default with iterations; seed = 7 } in
  Format.printf
    "%d starts, %d iterations each, base seed %d; evolve splits the same@.\
     %d starts over %d generations (pool %d) — equal budget by construction@.@."
    starts iterations config.Burkard.Config.seed starts generations pool_size;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let circuit_rows =
    List.map
      (fun (spec : Circuits.spec) ->
        let inst = Circuits.build spec in
        let problem = Circuits.problem ~with_timing:true inst in
        let initial = Runner.initial_solution inst in
        let pw, p =
          time (fun () ->
              Evolve.solve ~config ~max_rounds:2 ~jobs:1 ~starts ~generations:1 ~initial problem)
        in
        let ew, e =
          time (fun () ->
              Evolve.solve ~config ~max_rounds:2 ~jobs:1 ~starts ~generations ~pool_size
                ~initial problem)
        in
        let pc = Option.map snd p.Evolve.best_feasible in
        let ec = Option.map snd e.Evolve.best_feasible in
        (* independent audit of the population champion, same as the
           portfolio rows above *)
        let certified =
          match e.Evolve.best_feasible with
          | Some (a, c) -> Certify.ok (Certify.check ~claimed:c problem a)
          | None -> true
        in
        let not_worse =
          match (ec, pc) with
          | Some ec, Some pc -> ec <= pc +. 1e-9
          | Some _, None | None, None -> true
          | None, Some _ -> false
        in
        let fmt_cost = function Some c -> Printf.sprintf "%.1f" c | None -> "-" in
        Format.printf
          "  %-6s portfolio %10s (%5.1fs)   evolve %10s (%5.1fs)   %2d admitted %2d reseeded  %s%s@."
          spec.Circuits.name (fmt_cost pc) pw (fmt_cost ec) ew e.Evolve.admitted
          e.Evolve.reseeded
          (if not_worse then "evolve <= portfolio" else "EVOLVE WORSE")
          (if certified then "" else "  CERTIFICATION FAILED");
        ( spec.Circuits.name,
          ec,
          Json.Obj
            [
              ("circuit", Json.String spec.Circuits.name);
              ("components", Json.Int spec.Circuits.n);
              ( "portfolio_obj",
                match pc with Some c -> Json.Float c | None -> Json.Bool false );
              ("evolve_obj", match ec with Some c -> Json.Float c | None -> Json.Bool false);
              ("portfolio_wall_seconds", Json.Float pw);
              ("evolve_wall_seconds", Json.Float ew);
              ("admitted", Json.Int e.Evolve.admitted);
              ("reseeded", Json.Int e.Evolve.reseeded);
              ("evolve_not_worse", Json.Bool not_worse);
              ("certified", Json.Bool certified);
            ] ))
      specs
  in
  (* scaling: the same evolve run across 1/2/4/8 total domains, spent
     as outer starts x intra-solve eta refresh domains; the champion must be
     bit-identical in every row *)
  let scale_spec =
    if quick then List.hd Circuits.table1
    else
      List.fold_left
        (fun acc (s : Circuits.spec) -> if s.Circuits.n > acc.Circuits.n then s else acc)
        (List.hd Circuits.table1) Circuits.table1
  in
  let inst = Circuits.build scale_spec in
  let problem = Circuits.problem ~with_timing:true inst in
  let initial = Runner.initial_solution inst in
  let recommended = Evolve.default_jobs () in
  Format.printf "@.scaling on %s (N=%d), recommended domain count here: %d@.@."
    scale_spec.Circuits.name scale_spec.Circuits.n recommended;
  let run jobs inner_jobs =
    time (fun () ->
        Evolve.solve ~config ~max_rounds:2 ~jobs ~inner_jobs ~starts ~generations ~pool_size
          ~initial problem)
  in
  let base_wall, base = run 1 1 in
  let scale_row jobs inner_jobs wall (r : Evolve.result) =
    let identical =
      r.Evolve.best_cost = base.Evolve.best_cost
      && r.Evolve.best = base.Evolve.best
      && r.Evolve.winner = base.Evolve.winner
      && Option.map snd r.Evolve.best_feasible = Option.map snd base.Evolve.best_feasible
    in
    let certified =
      match r.Evolve.best_feasible with
      | Some (a, c) -> Certify.ok (Certify.check ~claimed:c problem a)
      | None -> true
    in
    let total = jobs * inner_jobs in
    Format.printf
      "  jobs=%d x inner=%d (%d domains)  %7.2fs  speedup %4.2fx  %s%s@." jobs inner_jobs
      total wall (base_wall /. wall)
      (if identical then "identical to 1 domain" else "MISMATCH vs 1 domain")
      (if certified then "" else "  CERTIFICATION FAILED");
    Json.Obj
      [
        ("jobs", Json.Int jobs);
        ("inner_jobs", Json.Int inner_jobs);
        ("total_domains", Json.Int total);
        ("wall_seconds", Json.Float wall);
        ("speedup_vs_jobs1", Json.Float (base_wall /. wall));
        ("identical_to_jobs1", Json.Bool identical);
        ("certified", Json.Bool certified);
        ("oversubscribed", Json.Bool (total > recommended));
      ]
  in
  let scaling_rows =
    let base_row = scale_row 1 1 base_wall base in
    base_row
    :: List.map
         (fun (jobs, inner_jobs) ->
           let wall, r = run jobs inner_jobs in
           scale_row jobs inner_jobs wall r)
         [ (2, 1); (2, 2); (4, 2) ]
  in
  Format.printf
    "@.(the seed-indexed reduction and ascending-index pool admission@.\
     make the domain budget invisible in the answer; speedup rows past@.\
     the recommended count measure multiplexing, and say so)@.";
  let summary =
    List.filter_map
      (fun (name, ec, _) ->
        match ec with
        | Some c -> Some (name ^ "_evolve_obj", Json.Float c)
        | None -> None)
      circuit_rows
  in
  let doc =
    Json.Obj
      [
        ("starts", Json.Int starts);
        ("generations", Json.Int generations);
        ("pool_size", Json.Int pool_size);
        ("iterations", Json.Int iterations);
        ("base_seed", Json.Int config.Burkard.Config.seed);
        ("circuits", Json.List (List.map (fun (_, _, j) -> j) circuit_rows));
        ( "scaling",
          Json.Obj
            [
              ("circuit", Json.String scale_spec.Circuits.name);
              ("components", Json.Int scale_spec.Circuits.n);
              ("recommended_domains", Json.Int recommended);
              ("runs", Json.List scaling_rows);
            ] );
      ]
  in
  (doc, summary)

(* ------------------------------------------------------------------ *)
(* Server throughput: jobs/sec and latency through the whole qbpartd
   stack — socket, framing, admission, scheduler, engine, certifier —
   offered at client concurrencies 1, 4 and 16 on the small Table-I
   circuit (shipped inline with every request, as a real client
   would). *)

module Sserver = Qbpart_server.Server
module Sclient = Qbpart_server.Client
module Sproto = Qbpart_server.Protocol

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

(* ECO session latency: one session on the small Table-I circuit, a
   stream of dims-preserving retime deltas served warm (validate →
   patch, the incumbent carried across the edit → repair → polish →
   certify, every row priced afresh), then the same stream forced cold
   (full multi-start re-solve).  The warm/cold p99 gap is the point of
   the session layer, so the gate pins it: warm p99 must sit at least
   10x below cold p99. *)
let eco_latency quick =
  section "ECO session latency (warm incumbent patch vs forced cold re-solve)";
  let spec = List.hd Circuits.table1 in
  let inst = Circuits.build spec in
  let nl = inst.Circuits.netlist in
  let text = Qbpart_netlist.Printer.to_string nl in
  let cname i = Qbpart_netlist.Component.name (Qbpart_netlist.Netlist.component nl i) in
  let n = Qbpart_netlist.Netlist.n nl in
  let submit =
    {
      (Sproto.default_submit ~netlist:(Sproto.Inline text)) with
      Sproto.rows = 2;
      cols = 2;
      slack = 1.3;
      iterations = (if quick then 10 else 30);
      (* multi-starts: the cold path re-runs the whole portfolio, the
         warm path patches one incumbent — this is the gap being sold *)
      starts = (if quick then 6 else 8);
      seed = 7;
    }
  in
  let deltas = if quick then 8 else 24 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qbpart-bench-eco-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  let socket_path = Filename.concat dir "eco.sock" in
  let config =
    { (Sserver.default_config ~socket_path) with Sserver.workers = 2; checkpoint_dir = dir }
  in
  let server =
    match Sserver.create config with
    | Ok s -> s
    | Error e -> failwith ("bench eco server: " ^ e)
  in
  let serve_thread = Thread.create Sserver.serve server in
  let c =
    match Sclient.connect (Sclient.Unix_socket socket_path) with
    | Ok c -> c
    | Error e -> failwith ("bench eco client: " ^ e)
  in
  let call req =
    match Sclient.call c req with
    | Ok (Sproto.Eco_result v) -> v
    | Ok r -> failwith (Format.asprintf "bench eco: unexpected %a" Sproto.pp_response r)
    | Error e -> failwith ("bench eco: " ^ e)
  in
  let v0 = call (Sproto.Session_open submit) in
  if not v0.Sproto.eco_certified then failwith "bench eco: uncertified session open";
  let sid = v0.Sproto.eco_session in
  let delta_text d =
    let a = d mod n in
    let b = (a + 1 + (d mod (n - 1))) mod n in
    let b = if b = a then (a + 1) mod n else b in
    Printf.sprintf "retime %s %s %g\n" (cname a) (cname b) (4.0 +. float_of_int (d mod 5))
  in
  let seq = ref 0 in
  let stream ~force_cold =
    let lat = Array.make deltas 0.0 in
    let served_as = ref [] in
    for d = 1 to deltas do
      let t0 = Unix.gettimeofday () in
      let v =
        call
          (Sproto.Eco_submit
             { session = sid; seq = !seq + 1; delta = delta_text d; force_cold })
      in
      lat.(d - 1) <- Unix.gettimeofday () -. t0;
      seq := v.Sproto.eco_seq;
      if not v.Sproto.eco_certified then failwith "bench eco: uncertified eco answer";
      served_as := v.Sproto.served :: !served_as
    done;
    Array.sort compare lat;
    (lat, !served_as)
  in
  let warm_lat, warm_served = stream ~force_cold:false in
  let cold_lat, _ = stream ~force_cold:true in
  let fallbacks =
    match Sclient.call c Sproto.Metrics with
    | Ok (Sproto.Metrics_snapshot m) -> m.Sproto.eco_cold_fallbacks
    | _ -> -1
  in
  (match Sclient.call c (Sproto.Session_close sid) with Ok _ | Error _ -> ());
  Sclient.close c;
  Sserver.request_drain server;
  Thread.join serve_thread;
  let warm_hits = List.length (List.filter (( = ) "warm") warm_served) in
  let warm_p50 = percentile warm_lat 0.50 and warm_p99 = percentile warm_lat 0.99 in
  let cold_p50 = percentile cold_lat 0.50 and cold_p99 = percentile cold_lat 0.99 in
  let speedup = if warm_p99 > 0.0 then cold_p99 /. warm_p99 else infinity in
  let fallback_rate = float_of_int (max 0 fallbacks) /. float_of_int deltas in
  let ok = warm_p99 *. 10.0 <= cold_p99 in
  Format.printf "circuit %s (N=%d), %d retime deltas per mode@.@." spec.Circuits.name
    spec.Circuits.n deltas;
  Format.printf "  warm  %2d/%2d hits   p50 %.6fs  p99 %.6fs@." warm_hits deltas warm_p50
    warm_p99;
  Format.printf "  cold  forced       p50 %.6fs  p99 %.6fs@." cold_p50 cold_p99;
  Format.printf "  p99 speedup %.1fx  cold-fallback rate %.3f  %s@." speedup fallback_rate
    (if ok then "warm >= 10x under cold: OK" else "warm/cold GAP TOO SMALL");
  Json.Obj
    [
      ("deltas_per_mode", Json.Int deltas);
      ("warm_hits", Json.Int warm_hits);
      ("warm_p50_s", Json.Float warm_p50);
      ("warm_p99_s", Json.Float warm_p99);
      ("cold_p50_s", Json.Float cold_p50);
      ("cold_p99_s", Json.Float cold_p99);
      ("warm_speedup", Json.Float speedup);
      ("cold_fallback_rate", Json.Float fallback_rate);
      ("warm_vs_cold_ok", Json.Bool ok);
    ]

let server_throughput quick =
  section "Server throughput (qbpartd end to end, ckta inline submits)";
  let spec = List.hd Circuits.table1 in
  let inst = Circuits.build spec in
  let text = Qbpart_netlist.Printer.to_string inst.Circuits.netlist in
  (* a geometry random multi-starts solve reliably: the paper's 4x4 at
     1.08 slack needs the planted reference as a warm start, which a
     cold submit does not have *)
  let submit_spec seed =
    {
      (Sproto.default_submit ~netlist:(Sproto.Inline text)) with
      Sproto.rows = 2;
      cols = 2;
      slack = 1.3;
      iterations = (if quick then 10 else 30);
      seed;
    }
  in
  let jobs_total = if quick then 12 else 48 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qbpart-bench-server-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  Format.printf "circuit %s (N=%d), %d jobs per depth, 2 worker domains@.@."
    spec.Circuits.name spec.Circuits.n jobs_total;
  let run_depth depth =
    let socket_path = Filename.concat dir (Printf.sprintf "bench-%d.sock" depth) in
    let config =
      {
        (Sserver.default_config ~socket_path) with
        Sserver.max_queue = 64;
        workers = 2;
        checkpoint_dir = dir;
      }
    in
    let server =
      match Sserver.create config with
      | Ok s -> s
      | Error e -> failwith ("bench server: " ^ e)
    in
    let serve_thread = Thread.create Sserver.serve server in
    let per_client = max 1 (jobs_total / depth) in
    let latencies = Array.make (depth * per_client) 0.0 in
    let ok = Atomic.make true in
    let t0 = Unix.gettimeofday () in
    let client k =
      match Sclient.connect (Sclient.Unix_socket socket_path) with
      | Error _ -> Atomic.set ok false
      | Ok c ->
        for i = 0 to per_client - 1 do
          let slot = (k * per_client) + i in
          let j0 = Unix.gettimeofday () in
          match Sclient.call c (Sproto.Submit (submit_spec (1 + slot))) with
          | Ok (Sproto.Submitted { job; _ }) -> (
            match Sclient.wait ~timeout:120.0 c job with
            | Ok v ->
              latencies.(slot) <- Unix.gettimeofday () -. j0;
              if v.Sproto.certified <> Some true then Atomic.set ok false
            | Error _ -> Atomic.set ok false)
          | _ -> Atomic.set ok false
        done;
        Sclient.close c
    in
    let threads = List.init depth (fun k -> Thread.create client k) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    Sserver.request_drain server;
    Thread.join serve_thread;
    let served = depth * per_client in
    let sorted = Array.sub latencies 0 served in
    Array.sort compare sorted;
    let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
    let rate = float_of_int served /. wall in
    Format.printf
      "  depth=%2d  %4d jobs  %6.2fs  %7.1f jobs/s  p50 %.4fs  p99 %.4fs  %s@." depth
      served wall rate p50 p99
      (if Atomic.get ok then "all certified" else "CERTIFICATION/TRANSPORT FAILURE");
    Json.Obj
      [
        ("depth", Json.Int depth);
        ("jobs", Json.Int served);
        ("wall_seconds", Json.Float wall);
        ("jobs_per_sec", Json.Float rate);
        ("p50_latency_s", Json.Float p50);
        ("p99_latency_s", Json.Float p99);
        ("all_certified", Json.Bool (Atomic.get ok));
      ]
  in
  let rows = List.map run_depth [ 1; 4; 16 ] in
  Format.printf
    "@.(throughput is bounded by the worker-domain count; deeper offered@.\
     concurrency buys queueing, not speed — the p99 shows the queue)@.";
  let eco = eco_latency quick in
  Json.Obj
    [
      ("circuit", Json.String spec.Circuits.name);
      ("components", Json.Int spec.Circuits.n);
      ("jobs_per_depth", Json.Int jobs_total);
      ("workers", Json.Int 2);
      ("depths", Json.List rows);
      ("eco", eco);
    ]

(* ------------------------------------------------------------------ *)
(* Scale frontier: flat CSR kernels and the 10k-100k synthetic
   instances (Synth.frontier).  Three measurements:

   - CSR vs boxed adjacency sweep on synth30k: the same
     connection-weighted distance accumulation (the memory-access
     shape of the eta and gain inner loops) over the flat
     struct-of-arrays layout and over the pre-rewrite boxed
     [(neighbor, weight) array array] layout, rebuilt here so the
     claimed layout speedup stays pinned.
   - warm-started QBP iteration throughput per frontier instance.
   - (full runs only) a certified end-to-end engine solve of
     synth100k.

   The scale_summary object feeds the CI compare gate. *)

let boxed_adjacency nl =
  let n = Netlist.n nl in
  let rows = Array.make n [] in
  Netlist.iter_wires nl (fun w ->
      let u = Qbpart_netlist.Wire.u w and v = Qbpart_netlist.Wire.v w in
      let x = Qbpart_netlist.Wire.weight w in
      rows.(u) <- (v, x) :: rows.(u);
      rows.(v) <- (u, x) :: rows.(v));
  Array.map
    (fun l ->
      let a = Array.of_list l in
      Array.sort (fun (j1, _) (j2, _) -> Int.compare j1 j2) a;
      a)
    rows

let csr_sweep nl dist a =
  let n = Netlist.n nl in
  let xadj = Netlist.adj_offsets nl in
  let anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  let total = ref 0.0 in
  for j = 0 to n - 1 do
    let dj = dist.(a.(j)) in
    for k = xadj.(j) to xadj.(j + 1) - 1 do
      total := !total +. (awgt.(k) *. dj.(a.(anbr.(k))))
    done
  done;
  !total

let boxed_sweep rows dist a =
  let n = Array.length rows in
  let total = ref 0.0 in
  for j = 0 to n - 1 do
    let dj = dist.(a.(j)) in
    let row = rows.(j) in
    for k = 0 to Array.length row - 1 do
      let nbr, x = row.(k) in
      total := !total +. (x *. dj.(a.(nbr)))
    done
  done;
  !total

(* Mean seconds per run, adaptively repeated: at least [min_runs]
   and at least [min_time] wall seconds.  Returns (mean_s, acc) with
   [acc] folded from every run so the work cannot be dead-coded. *)
let time_runs ?(min_runs = 3) ?(min_time = 0.3) f =
  let t0 = Unix.gettimeofday () in
  let runs = ref 0 in
  let acc = ref 0.0 in
  while !runs < min_runs || Unix.gettimeofday () -. t0 < min_time do
    acc := !acc +. f ();
    incr runs
  done;
  ((Unix.gettimeofday () -. t0) /. float_of_int !runs, !acc)

let scale_bench quick =
  section "Scale frontier (flat CSR kernels, synth10k-synth100k)";
  let module Synth = Qbpart_experiments.Synth in
  let module Engine = Qbpart_engine.Engine in
  let module Dompool = Qbpart_pool.Dompool in
  let frontier =
    if quick then
      List.filter (fun p -> p.Synth.name <> "synth100k") Synth.frontier
    else Synth.frontier
  in
  let pool = Dompool.create ~domains:4 in
  let built =
    List.map
      (fun p ->
        let t0 = Unix.gettimeofday () in
        let inst = Synth.build ~pool p in
        let dt = Unix.gettimeofday () -. t0 in
        Format.printf "  built %-10s n=%-7d wires=%-7d budgets=%-7d  %.2fs@."
          p.Synth.name p.Synth.n
          (Netlist.wire_count inst.Circuits.netlist)
          (Constraints.count inst.Circuits.constraints)
          dt;
        (p, inst, dt))
      frontier
  in
  Dompool.shutdown pool;
  (* layout microbench on synth30k: present in quick and full runs so
     the committed gate always covers it *)
  let layout =
    let _, inst, _ =
      List.find (fun (p, _, _) -> p.Synth.name = "synth30k") built
    in
    let nl = inst.Circuits.netlist in
    let topo = inst.Circuits.topology in
    let m = Topology.m topo in
    let dist = Array.init m (fun i -> Array.init m (fun i' -> Topology.d topo i i')) in
    let a = inst.Circuits.reference in
    let boxed = boxed_adjacency nl in
    (* same per-row order in both layouts => bit-identical totals *)
    assert (csr_sweep nl dist a = boxed_sweep boxed dist a);
    let csr_s, _ = time_runs (fun () -> csr_sweep nl dist a) in
    let boxed_s, _ = time_runs (fun () -> boxed_sweep boxed dist a) in
    let speedup = boxed_s /. csr_s in
    Format.printf
      "@.  adjacency sweep on synth30k: CSR %.2fms, boxed %.2fms  (%.2fx)@."
      (csr_s *. 1e3) (boxed_s *. 1e3) speedup;
    [
      ("csr_sweep_ns", Json.Float (csr_s *. 1e9));
      ("boxed_sweep_ns", Json.Float (boxed_s *. 1e9));
      ("csr_sweep_speedup", Json.Float speedup);
    ]
  in
  (* warm-started QBP iteration throughput per instance: the median of
     five solves, since one solve's wall spreads by tens of percent
     between runs of one build *)
  let throughput =
    List.concat_map
      (fun (p, inst, build_s) ->
        let problem = Circuits.problem inst in
        let iterations = if p.Synth.n >= 100_000 then 2 else 3 in
        let config =
          { Burkard.Config.default with iterations; final_polish = 0 }
        in
        let solve () =
          let t0 = Unix.gettimeofday () in
          let result = Burkard.solve ~config ~initial:inst.Circuits.reference problem in
          (Unix.gettimeofday () -. t0, List.length result.Burkard.history)
        in
        let runs = List.sort compare (List.init 5 (fun _ -> solve ())) in
        let dt, iters = List.nth runs 2 in
        let per_sec = float_of_int iters /. dt in
        Format.printf "  %-10s %d QBP iterations in %6.2fs, median of 5  (%.3f iters/sec)@."
          p.Synth.name iters dt per_sec;
        [
          (p.Synth.name ^ "_build_s", Json.Float build_s);
          (p.Synth.name ^ "_iters_per_sec", Json.Float per_sec);
        ])
      built
  in
  (* full runs: certified end-to-end solve of the 100k instance *)
  let certified =
    if quick then []
    else begin
      let _, inst, _ =
        List.find (fun (p, _, _) -> p.Synth.name = "synth100k") built
      in
      let problem = Circuits.problem inst in
      let config =
        {
          Engine.Config.default with
          qbp = { Burkard.Config.default with iterations = 2 };
          inner_jobs = 4;
        }
      in
      let deadline = Qbpart_engine.Deadline.of_seconds 1200.0 in
      let t0 = Unix.gettimeofday () in
      match Engine.solve ~config ~deadline ~initial:inst.Circuits.reference problem with
      | Error e -> failwith ("scale bench: synth100k engine solve: " ^ Engine.Error.to_string e)
      | Ok { Engine.certificate; report; _ } ->
        let dt = Unix.gettimeofday () -. t0 in
        let ok = Certify.ok certificate in
        Format.printf "@.  synth100k certified end to end in %.1fs (%s)@." dt
          (if ok then "certificate ok" else "CERTIFICATE FAILED");
        Format.printf "  %a@." Engine.Report.pp report;
        if not ok then failwith "scale bench: synth100k certificate failed";
        [
          ("synth100k_certified_s", Json.Float dt);
          ("synth100k_certified", Json.Bool ok);
        ]
    end
  in
  let summary = layout @ throughput in
  let doc =
    Json.Obj
      ([
         ("quick", Json.Bool quick);
         ( "instances",
           Json.List
             (List.map
                (fun (p, inst, build_s) ->
                  Json.Obj
                    [
                      ("name", Json.String p.Synth.name);
                      ("n", Json.Int p.Synth.n);
                      ("wires", Json.Int (Netlist.wire_count inst.Circuits.netlist));
                      ( "budgets",
                        Json.Int (Constraints.count inst.Circuits.constraints) );
                      ("build_s", Json.Float build_s);
                    ])
                built) );
       ]
      @ certified)
  in
  (doc, summary)

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let flag f = List.mem f args in
  let json_path =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let quick = flag "--quick" in
  let only_portfolio = flag "--only-portfolio" in
  let only_evolve = flag "--only-evolve" in
  let only_server = flag "--only-server" in
  let only_baselines = flag "--only-baselines" in
  let only_scale = flag "--only-scale" in
  let t0 = Sys.time () in
  let wall0 = Unix.gettimeofday () in
  let kernel_stats = ref [] in
  let portfolio_stats = ref None in
  let evolve_stats = ref None in
  let server_stats = ref None in
  let scale_stats = ref None in
  if only_scale then scale_stats := Some (scale_bench quick)
  else if only_server then server_stats := Some (server_throughput quick)
  else if only_baselines then begin
    (* CI smoke: just the GFM move / GKL swap selection and default
       MTHG kernel rows *)
    Format.printf "building ckta (baseline kernels)...@.";
    let inst = Circuits.build (List.hd Circuits.table1) in
    kernel_stats := kernels ~baselines_only:true inst
  end
  else if only_evolve then evolve_stats := Some (evolve_bench quick)
  else if only_portfolio then begin
    Format.printf "building %s...@." (if quick then "ckta" else "ckta (kernels)");
    let inst = Circuits.build (List.hd Circuits.table1) in
    portfolio_stats := Some (portfolio quick);
    evolve_stats := Some (evolve_bench quick);
    if not (flag "--skip-kernels") then kernel_stats := kernels inst
  end
  else begin
    figure1 ();
    Format.printf "@.building the circuit suite...@.";
    let instances =
      if quick then [ Circuits.build (List.hd Circuits.table1) ] else Circuits.build_all ()
    in
    let _rows2, _rows3 = tables instances in
    if not (flag "--skip-robustness") then robustness instances;
    if not (flag "--skip-ablations") then ablations (List.hd instances);
    if not (flag "--skip-sweeps") then begin
      convergence (List.hd instances);
      sweeps quick
    end;
    if not (flag "--skip-portfolio") then portfolio_stats := Some (portfolio quick);
    if not (flag "--skip-evolve") then evolve_stats := Some (evolve_bench quick);
    if not (flag "--skip-server") then server_stats := Some (server_throughput quick);
    if not (flag "--skip-kernels") then kernel_stats := kernels (List.hd instances)
  end;
  (match (json_path, only_scale, !scale_stats) with
  | Some path, true, Some (doc, summary) ->
    (* --only-scale --json PATH: the BENCH_scale.json artifact *)
    Json.to_file path
      (Json.Obj
         [
           ("schema", Json.String "qbpart-bench-scale/1");
           ("scale", doc);
           ("scale_summary", Json.Obj summary);
         ]);
    Format.printf "@.wrote %s@." path
  | _ -> ());
  (match (json_path, only_server, !server_stats) with
  | Some path, true, Some server ->
    (* --only-server --json PATH: the BENCH_server.json artifact *)
    Json.to_file path
      (Json.Obj
         [
           ("schema", Json.String "qbpart-bench-server/1");
           ("quick", Json.Bool quick);
           ("server", server);
         ]);
    Format.printf "@.wrote %s@." path
  | _ -> ());
  (match (json_path, only_server || only_scale) with
  | None, _ | _, true -> ()
  | Some path, false ->
    let kernels_json =
      Json.List
        (List.map
           (fun (name, ns) ->
             Json.Obj [ ("name", Json.String name); ("ns_per_run", Json.Float ns) ])
           !kernel_stats)
    in
    let summary =
      let base =
        match
          ( List.assoc_opt "penalized objective (full eval)" !kernel_stats,
            List.assoc_opt "delta eval (one move, max-degree j)" !kernel_stats )
        with
        | Some full, Some delta when delta > 0.0 ->
          [
            ("full_eval_ns", Json.Float full);
            ("delta_eval_ns", Json.Float delta);
            ("delta_speedup", Json.Float (full /. delta));
          ]
        | _ -> []
      in
      (* STEP 3 on its own: half the there-and-back refresh row, one
         16-move jump's worth of recomputed rows *)
      let step3 =
        match List.assoc_opt "row-cache refresh (2x 16-component jump)" !kernel_stats with
        | Some refresh -> [ ("row_refresh_ns", Json.Float (refresh /. 2.0)) ]
        | None -> []
      in
      (* the GAP half of an iteration: the flat-cost refresh, the pooled
         construction and relaxed solve, and their sum — the number the
         CI regression gate watches *)
      let inner =
        match
          ( List.assoc_opt "gap cost refresh (flat blit)" !kernel_stats,
            List.assoc_opt "mthg construct (pooled ws)" !kernel_stats,
            List.assoc_opt "mthg solve_relaxed (pooled ws)" !kernel_stats )
        with
        | Some refresh, Some construct, Some solve ->
          [
            ("gap_refresh_ns", Json.Float refresh);
            ("gap_construct_ns", Json.Float construct);
            ("gap_solve_ns", Json.Float solve);
            ("inner_loop_ns", Json.Float (construct +. solve));
          ]
        | _ -> []
      in
      base @ step3 @ inner
    in
    (* the baseline-kernel subset also emitted by [--only-baselines],
       gated separately in CI via [compare --summary baselines_summary] *)
    let baselines_summary =
      let selection =
        match
          ( List.assoc_opt "gains move selection (row scan)" !kernel_stats,
            List.assoc_opt "gains move selection (buckets)" !kernel_stats )
        with
        | Some scan, Some buck when buck > 0.0 ->
          [
            ("gains_select_scan_ns", Json.Float scan);
            ("gains_select_buckets_ns", Json.Float buck);
            ("gains_select_speedup", Json.Float (scan /. buck));
          ]
        | _ -> []
      in
      let swap_selection =
        match
          ( List.assoc_opt "gkl swap selection (pair scan)" !kernel_stats,
            List.assoc_opt "gkl swap selection (buckets)" !kernel_stats )
        with
        | Some scan, Some buck when buck > 0.0 ->
          [
            ("gkl_swap_scan_ns", Json.Float scan);
            ("gkl_swap_buckets_ns", Json.Float buck);
            ("gkl_swap_speedup", Json.Float (scan /. buck));
          ]
        | _ -> []
      in
      let mthg =
        match List.assoc_opt "mthg solve_relaxed (cost+weight, pooled ws)" !kernel_stats with
        | Some mthg -> [ ("gap_mthg_default_ns", Json.Float mthg) ]
        | None -> []
      in
      selection @ swap_selection @ mthg
    in
    let doc =
      Json.Obj
        ([
           ("schema", Json.String "qbpart-bench-portfolio/1");
           ("quick", Json.Bool quick);
           ("kernels", kernels_json);
         ]
        @ (if summary = [] then [] else [ ("kernels_summary", Json.Obj summary) ])
        @ (if baselines_summary = [] then []
           else [ ("baselines_summary", Json.Obj baselines_summary) ])
        @ (match !evolve_stats with
          | Some (_, s) when s <> [] -> [ ("evolve_summary", Json.Obj s) ]
          | _ -> [])
        @ (match !portfolio_stats with
          | Some p -> [ ("portfolio", p) ]
          | None -> [])
        @ (match !evolve_stats with
          | Some (e, _) -> [ ("evolve", e) ]
          | None -> [])
        @ (match !server_stats with
          | Some s -> [ ("server", s) ]
          | None -> []))
    in
    Json.to_file path doc;
    Format.printf "@.wrote %s@." path);
  Format.printf "@.total bench time: %.1fs cpu, %.1fs wall@." (Sys.time () -. t0)
    (Unix.gettimeofday () -. wall0)
