(* The steady-state Burkard kernels allocate nothing per element
   (burkard.mli, Workspace; DESIGN.md D14 and D17), and neither do the
   GFM/GKL selections (buckets.mli; DESIGN.md D15).  Each kernel is run
   once to warm its buffers, then its minor-heap words are measured on
   one call over a small generated instance and over one four times
   larger.  A kernel that boxes a float per wire, per partition or per
   moved component allocates in proportion to N, so the larger
   instance's count exceeds the small one's and the test fails; a few
   words of fixed per-call overhead are tolerated. *)

open Qbpart_core
module Gains = Qbpart_baselines.Gains
module Buckets = Qbpart_baselines.Buckets
module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Gap = Qbpart_gap.Gap
module Mthg = Qbpart_gap.Mthg
module Checkpoint = Qbpart_engine.Checkpoint

(* fixed per-call words a kernel may spend whatever N is (a closure or
   two, a boxed result) *)
let per_call_slack = 32.0

let small_n = 250

(* 4x4 grid, ~8 wires and ~3 directed budgets per component, capacity
   slack [slack] over an even split *)
let instance ~n ~slack =
  let rng = Rng.create (17 + n) in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires:(8 * n)) in
  let m = 16 in
  let capacity = Netlist.total_size nl /. float_of_int m *. slack in
  let topo = Grid.make ~rows:4 ~cols:4 ~capacity () in
  let cons = Constraints.Builder.create ~n in
  for _ = 1 to 3 * n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then Constraints.Builder.add cons j1 j2 (float_of_int (1 + Rng.int rng 3))
  done;
  let cons = Constraints.Builder.build cons in
  let q = Qmatrix.make (Problem.make ~constraints:cons nl topo) in
  (q, Assignment.random rng ~n ~m)

let words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* [kernel ~n] prepares the state for one instance size and returns the
   call to measure (called twice: warm-up, then measured) *)
let check_flat name kernel =
  let small = words (kernel ~n:small_n) in
  let large = words (kernel ~n:(4 * small_n)) in
  if large > small +. per_call_slack then
    Alcotest.failf "%s allocates with N: %.0f minor words at N=%d, %.0f at N=%d" name small
      small_n large (4 * small_n)

let eta_into ~n =
  let q, u = instance ~n ~slack:1.2 in
  let eta = Array.make (Qmatrix.dim q) 0.0 in
  fun () -> Qmatrix.eta_into q u eta

(* STEP 3 after a jump: each refresh follows a move of an eighth of the
   components, alternating between two placements drawn up front, and
   recomputes the rows of their neighbours (a count that scales with N) *)
let row_refresh ~n =
  let q, u = instance ~n ~slack:1.2 in
  let m = Problem.m (Qmatrix.problem q) in
  let cache = Repair.cache ~m ~n in
  let pool = Qbpart_pool.Dompool.sequential in
  Repair.refresh cache q u ~pool;
  let other = Assignment.copy u in
  for j = 0 to (n / 8) - 1 do
    other.(8 * j) <- (u.(8 * j) + 1) mod m
  done;
  let flip = ref false in
  fun () ->
    flip := not !flip;
    Repair.refresh cache q (if !flip then other else u) ~pool

(* every call restarts from the same random placement, so each pass
   makes its full count of moves *)
let coordinate_pass ~n =
  let q, u0 = instance ~n ~slack:1.2 in
  let p = Qmatrix.problem q in
  let m = Problem.m p in
  let u = Array.copy u0 and loads = Array.make m 0.0 and scratch = Array.make m 0.0 in
  let delta = ref 0.0 and dviol = ref 0 in
  fun () ->
    Array.blit u0 0 u 0 n;
    Array.blit (Assignment.loads p.Problem.netlist ~m u) 0 loads 0 m;
    ignore (Repair.coordinate_pass ~delta ~dviol q u ~loads ~scratch : bool)

(* the same pass reading the row cache: each call diffs the restart
   against the positions the previous pass left, and so does each move
   it makes.  The instance is integral, so at the default penalty the
   surface is exact and every move patches the valid rows of its
   neighbours and partners in place; at a fractional penalty it
   invalidates them, and the pass recomputes just those rows
   (DESIGN.md D16, D25) *)
let cached_coordinate_pass ~exact ~n =
  let q, u0 = instance ~n ~slack:1.2 in
  let q = if exact then q else Qmatrix.make ~penalty:13.7 (Qmatrix.problem q) in
  if Qmatrix.exact q <> exact then Alcotest.failf "surface exact = %b, expected %b" (not exact) exact;
  let p = Qmatrix.problem q in
  let m = Problem.m p in
  let u = Array.copy u0 and loads = Array.make m 0.0 and scratch = Array.make m 0.0 in
  let cache = Repair.cache ~m ~n in
  let delta = ref 0.0 and dviol = ref 0 in
  fun () ->
    Array.blit u0 0 u 0 n;
    Array.blit (Assignment.loads p.Problem.netlist ~m u) 0 loads 0 m;
    ignore (Repair.coordinate_pass ~delta ~dviol ~cache q u ~loads ~scratch : bool)

(* the cached pass at its fixpoint, as the polish after a converged
   STEP 6 meets it: every row is valid and every component sits at its
   row's minimum, so the pass skips them all at one comparison each
   (DESIGN.md D23) *)
let skipping_coordinate_pass ~n =
  let q, u = instance ~n ~slack:1.2 in
  let p = Qmatrix.problem q in
  let m = Problem.m p in
  let cache = Repair.cache ~m ~n in
  Repair.polish ~cache q u ~passes:1000;
  let loads = Assignment.loads p.Problem.netlist ~m u and scratch = Array.make m 0.0 in
  fun () -> ignore (Repair.coordinate_pass ~cache q u ~loads ~scratch : bool)

(* STEP 3's xi on a memo that forgets every entry at each call: the two
   matrices alternate, so each call rebinds the memo and computes all N
   entries it reads *)
let xi ~n =
  let q, u = instance ~n ~slack:1.2 in
  let p = Qmatrix.problem q in
  let q' = Qmatrix.make ~penalty:1e12 p in
  let memo = Qmatrix.omega_memo ~m:(Problem.m p) ~n in
  let flip = ref false in
  fun () ->
    flip := not !flip;
    ignore (Qmatrix.xi ~rule:Qmatrix.Solver (if !flip then q' else q) memo u : float)

(* the strict surface Burkard makes on first use in every round: a
   matrix is the problem and a penalty, nothing per component *)
let strict_make ~n =
  let q, _ = instance ~n ~slack:1.2 in
  let p = Qmatrix.problem q in
  fun () -> ignore (Qmatrix.make ~penalty:1e12 p : Qmatrix.t)

(* the summary [Problem.make] takes of every problem, one pass over the
   adjacency weights and partner offsets (DESIGN.md D25): a boxed float
   per wire would make it allocate with N *)
let problem_make ~n =
  let q, _ = instance ~n ~slack:1.2 in
  let p = Qmatrix.problem q in
  fun () ->
    ignore
      (Problem.make ~constraints:p.Problem.constraints p.Problem.netlist p.Problem.topology
        : Problem.t)

(* the instance hash that keys every checkpoint and store file: plain
   loops on one unboxed local, so a boxed step per size, wire or budget
   would make it allocate with N *)
let instance_hash ~n =
  let q, _ = instance ~n ~slack:1.2 in
  let p = Qmatrix.problem q in
  fun () -> ignore (Checkpoint.instance_hash p : int64)

let violations ~n =
  let q, u = instance ~n ~slack:1.2 in
  fun () -> ignore (Qmatrix.violations q u : int)

(* STEP 4 as Burkard runs it: the GAP borrows eta as its cost matrix
   and w_ij = s_j.  At slack 1.2 the constructions succeed; at 0.9 the
   knapsacks cannot hold every item, every construction gets stuck and
   the overflow fill runs; at 32 each knapsack could hold the netlist
   twice, so every item's cheapest knapsack fits and the call returns
   that placement without constructing (DESIGN.md D22). *)
let solve_relaxed ~slack ~n =
  let q, u = instance ~n ~slack in
  let p = Qmatrix.problem q in
  let m = Problem.m p in
  let eta = Qmatrix.eta q u in
  let weight = Gap.uniform_weights ~sizes:(Netlist.sizes p.Problem.netlist) ~m in
  let capacity = Topology.capacities p.Problem.topology in
  let g = Gap.borrow ~cost:eta ~weight ~capacity ~n in
  let ws = Mthg.workspace ~m ~n in
  let criteria = Burkard.Config.default.Burkard.Config.gap_criteria in
  fun () -> ignore (Mthg.solve_relaxed ~ws ~criteria ~improve:`Shift g : int array)

(* STEP 4 with the criterion legs fork-joined on a 2-domain pool
   (DESIGN.md D28): the leg workspace is made by the warm-up call, and
   a call then allocates the fork's closure and nothing per item,
   whether the helper takes the [Weight] leg or the caller runs both *)
let forked_pool = lazy (Qbpart_pool.Dompool.acquire ~domains:2)

let forked_solve_relaxed ~n =
  let q, u = instance ~n ~slack:1.2 in
  let p = Qmatrix.problem q in
  let m = Problem.m p in
  let eta = Qmatrix.eta q u in
  let weight = Gap.uniform_weights ~sizes:(Netlist.sizes p.Problem.netlist) ~m in
  let capacity = Topology.capacities p.Problem.topology in
  let g = Gap.borrow ~cost:eta ~weight ~capacity ~n in
  let ws = Mthg.workspace ~m ~n in
  let pool = Lazy.force forked_pool in
  let criteria = Burkard.Config.default.Burkard.Config.gap_criteria in
  fun () -> ignore (Mthg.solve_relaxed ~ws ~pool ~criteria ~improve:`Shift g : int array)

(* the [Cost] leg's construction on sorted first regrets (DESIGN.md
   D26): [`Cost_first] with capacities 2 % over an even split, so
   placements fill knapsacks and the cascade refreshes and re-pushes
   many items; [`Nan] with -infinity at two knapsacks of every eighth
   item, whose regret is then NaN, so every first entry goes on the
   heap *)
let sorted_regrets kind ~n =
  let q, u = instance ~n ~slack:1.02 in
  let p = Qmatrix.problem q in
  let m = Problem.m p in
  let eta = Qmatrix.eta q u in
  (match kind with
  | `Cost_first -> ()
  | `Nan ->
    for j = 0 to (n / 8) - 1 do
      eta.(8 * j * m) <- neg_infinity;
      eta.((8 * j * m) + 1) <- neg_infinity
    done);
  let weight = Gap.uniform_weights ~sizes:(Netlist.sizes p.Problem.netlist) ~m in
  let capacity = Topology.capacities p.Problem.topology in
  let g = Gap.borrow ~cost:eta ~weight ~capacity ~n in
  let ws = Mthg.workspace ~m ~n in
  fun () -> ignore (Mthg.solve_relaxed ~ws ~criteria:[ Mthg.Cost ] ~improve:`Shift g : int array)

(* the [Weight] leg alone: its construction ignores cost, so the shift
   that follows moves most items, walking and filtering their
   candidate lists (DESIGN.md D24) *)
let weight_leg_shift ~n =
  let q, u = instance ~n ~slack:1.2 in
  let p = Qmatrix.problem q in
  let m = Problem.m p in
  let eta = Qmatrix.eta q u in
  let weight = Gap.uniform_weights ~sizes:(Netlist.sizes p.Problem.netlist) ~m in
  let capacity = Topology.capacities p.Problem.topology in
  let g = Gap.borrow ~cost:eta ~weight ~capacity ~n in
  let ws = Mthg.workspace ~m ~n in
  fun () -> ignore (Mthg.solve_relaxed ~ws ~criteria:[ Mthg.Weight ] ~improve:`Shift g : int array)

(* STEP 4 then STEP 6 as Burkard runs them: the STEP-6 instance is the
   STEP-4 one with h as its cost, so both read the one memoized [Weight]
   and [Weight_per_capacity] construction of the workspace *)
let memoized_solve_relaxed ~n =
  let q, u = instance ~n ~slack:1.2 in
  let p = Qmatrix.problem q in
  let m = Problem.m p in
  let eta = Qmatrix.eta q u in
  let h = Array.map (fun x -> x *. 0.5) eta in
  let weight = Gap.uniform_weights ~sizes:(Netlist.sizes p.Problem.netlist) ~m in
  let capacity = Topology.capacities p.Problem.topology in
  let g4 = Gap.borrow ~cost:eta ~weight ~capacity ~n in
  let g6 = Gap.with_cost g4 h in
  let ws = Mthg.workspace ~m ~n in
  let criteria = [ Mthg.Cost; Mthg.Weight; Mthg.Weight_per_capacity ] in
  fun () ->
    ignore (Mthg.solve_relaxed ~ws ~criteria ~improve:`Shift g4 : int array);
    ignore (Mthg.solve_relaxed ~ws ~criteria ~improve:`Shift g6 : int array)

(* the GFM/GKL selections as the solvers run them: capacity and timing
   owned by a bucket structure created with the budgets; Table III
   tightness (slack 1.08) over a random placement *)
let selection ~n =
  let rng = Rng.create (29 + n) in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires:(8 * n)) in
  let topo = Grid.make ~rows:4 ~cols:4 ~capacity:(Netlist.total_size nl /. 16.0 *. 1.08) () in
  let cons = Constraints.Builder.create ~n in
  for _ = 1 to 3 * n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then Constraints.Builder.add cons j1 j2 (float_of_int (1 + Rng.int rng 3))
  done;
  let gains = Gains.create nl topo (Assignment.random rng ~n ~m:16) in
  Buckets.create ~constraints:(Constraints.Builder.build cons) nl topo gains

let best_move ~n =
  let b = selection ~n in
  fun () -> ignore (Buckets.best_move b : (int * int * float) option)

let best_swap ~n =
  let b = selection ~n in
  fun () -> ignore (Buckets.best_swap b : (int * int * float) option)

let () =
  let case name kernel = Alcotest.test_case name `Quick (fun () -> check_flat name kernel) in
  Alcotest.run "alloc"
    [
      ( "flat in N",
        [
          case "Qmatrix.eta_into" eta_into;
          case "Repair.refresh (after a jump)" row_refresh;
          case "Repair.coordinate_pass" coordinate_pass;
          case "Repair.coordinate_pass ~cache" (cached_coordinate_pass ~exact:true);
          case "Repair.coordinate_pass ~cache (fractional surface, invalidates)"
            (cached_coordinate_pass ~exact:false);
          case "Repair.coordinate_pass ~cache (skips at the fixpoint)" skipping_coordinate_pass;
          case "Qmatrix.xi (every entry computed)" xi;
          case "Qmatrix.make (strict surface)" strict_make;
          case "Problem.make (integrality summary)" problem_make;
          case "Checkpoint.instance_hash" instance_hash;
          case "Qmatrix.violations" violations;
          case "Mthg.solve_relaxed ~ws (feasible)" (solve_relaxed ~slack:1.2);
          case "Mthg.solve_relaxed ~ws (overflow fill)" (solve_relaxed ~slack:0.9);
          case "Mthg.solve_relaxed ~ws (cheapest placement fits)" (solve_relaxed ~slack:32.0);
          case "Mthg.solve_relaxed ~ws (memoized, STEP 4 and 6)" memoized_solve_relaxed;
          case "Mthg.solve_relaxed ~ws (two legs forked on a 2-domain pool)"
            forked_solve_relaxed;
          case "Mthg.solve_relaxed ~ws (Weight leg, shift lists)" weight_leg_shift;
          case "Mthg.solve_relaxed ~ws (sorted first regrets, cascades)"
            (sorted_regrets `Cost_first);
          case "Mthg.solve_relaxed ~ws (NaN regrets, heap only)" (sorted_regrets `Nan);
          case "Buckets.best_move (capacity and timing)" best_move;
          case "Buckets.best_swap (capacity and timing)" best_swap;
        ] );
    ]
