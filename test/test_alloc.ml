(* The steady-state Burkard kernels allocate nothing per element
   (burkard.mli, Workspace; DESIGN.md D9 and D14).  Each kernel is run
   once to warm its buffers, then its minor-heap words are measured on
   one call over a small generated instance and over one four times
   larger.  A kernel that boxes a float per wire, per partition or per
   moved component allocates in proportion to N, so the larger
   instance's count exceeds the small one's and the test fails; a few
   words of fixed per-call overhead are tolerated. *)

open Qbpart_core
module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Gap = Qbpart_gap.Gap
module Mthg = Qbpart_gap.Mthg

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
  let cons = Constraints.create ~n in
  for _ = 1 to 3 * n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then Constraints.add cons j1 j2 (float_of_int (1 + Rng.int rng 3))
  done;
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

(* the patch path: each sync moves an eighth of the components (well
   under the full-recompute limit, so the patch count scales with N),
   alternating between two placements drawn up front *)
let eta_sync ~n =
  let q, u = instance ~n ~slack:1.2 in
  let m = Problem.m (Qmatrix.problem q) in
  let st = Qmatrix.eta_state q u in
  let other = Assignment.copy u in
  for j = 0 to (n / 8) - 1 do
    other.(8 * j) <- (u.(8 * j) + 1) mod m
  done;
  let flip = ref false in
  fun () ->
    flip := not !flip;
    ignore (Qmatrix.eta_sync st (if !flip then other else u) : int)

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

let violations ~n =
  let q, u = instance ~n ~slack:1.2 in
  fun () -> ignore (Qmatrix.violations q u : int)

(* STEP 4 as Burkard runs it: the GAP borrows eta as its cost matrix
   and w_ij = s_j.  At slack 1.2 the constructions succeed; at 0.9 the
   knapsacks cannot hold every item, every construction gets stuck and
   the overflow fill runs. *)
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

let () =
  let case name kernel = Alcotest.test_case name `Quick (fun () -> check_flat name kernel) in
  Alcotest.run "alloc"
    [
      ( "flat in N",
        [
          case "Qmatrix.eta_into" eta_into;
          case "Qmatrix.eta_sync (patch path)" eta_sync;
          case "Repair.coordinate_pass" coordinate_pass;
          case "Qmatrix.violations" violations;
          case "Mthg.solve_relaxed ~ws (feasible)" (solve_relaxed ~slack:1.2);
          case "Mthg.solve_relaxed ~ws (overflow fill)" (solve_relaxed ~slack:0.9);
        ] );
    ]
