(* Incremental eta and the flat unboxed GAP kernels: STEP 3's eta, the
   refreshed row cache (DESIGN.md D17), is checked bit for bit against
   from-scratch recomputes over random moves, cached passes, penalty
   re-binds, pool sizes and ECO deltas; the cached passes, and every
   valid row they leave, against a fresh-row reference (D16), on exact
   surfaces where moves patch the rows in place too (D25); the row
   kernel against the kernel it replaced, and xi against a per-entry
   walk of omega (D23); the flat pooled MTHG against an embedded
   boxed-matrix reference implementation; and workspace reuse against
   fresh-buffer solves. *)

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
module Improve = Qbpart_gap.Improve
module Dompool = Qbpart_pool.Dompool

let check = Alcotest.check
let fail = Alcotest.fail

(* Same instance family as test_portfolio: enough wires, both
   constraint directions, and a float P matrix, so every term of both
   eta rules is exercised and the sums depend on their order.  [?n]
   fixes the size (the default is 8-15 components). *)
let random_problem ?n seed =
  let rng = Rng.create seed in
  let n = match n with Some n -> n | None -> 8 + Rng.int rng 8 in
  let m = 4 in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires:(3 * n)) in
  let capacity = Netlist.total_size nl /. float_of_int m *. 1.5 in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity () in
  let cons = Constraints.Builder.create ~n in
  for _ = 1 to n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then Constraints.Builder.add cons j1 j2 (float_of_int (1 + Rng.int rng 2))
  done;
  let p = Some (Array.init m (fun _ -> Array.init n (fun _ -> Rng.float rng 5.0))) in
  Problem.make ?p ~constraints:(Constraints.Builder.build cons) nl topo

(* ------------------------------------------------------------------ *)
(* STEP 3's eta is the round's row cache (DESIGN.md D17): a refresh   *)
(* must land on a from-scratch eta_into bit for bit, for any data.    *)

let same_vector a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

(* [refresh] then compare with a fresh Solver-rule eta at [u] *)
let refreshed_equals_scratch ?(pool = Dompool.sequential) cache q u =
  Repair.refresh cache q u ~pool;
  same_vector (Repair.rows cache) (Qmatrix.eta q u)

let prop_refresh_after_single_moves =
  QCheck.Test.make
    ~name:"row refresh after single moves: bit-identical to eta_into (float P)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let q = Qmatrix.make ~penalty:50.0 (random_problem seed) in
      let problem = Qmatrix.problem q in
      let n = Problem.n problem and m = Problem.m problem in
      let rng = Rng.create (seed + 1) in
      let u = Assignment.random rng ~n ~m in
      let cache = Repair.cache ~m ~n in
      let ok = ref (refreshed_equals_scratch cache q u) in
      for _ = 1 to 40 do
        u.(Rng.int rng n) <- Rng.int rng m;
        if not (refreshed_equals_scratch cache q u) then ok := false
      done;
      !ok)

(* The edits STEP 3 sees between two refreshes: GAP jumps of any size
   (nothing up to the whole placement), the cached polish and probe
   passes that run on the same cache, pair passes that move components
   behind its back, and the next penalty round's surface. *)
let prop_refresh_across_jumps_and_passes =
  QCheck.Test.make
    ~name:"row refresh across jumps, passes and re-binds: bit-identical to eta_into"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_problem seed in
      let q = ref (Qmatrix.make ~penalty:50.0 problem) in
      let problem = Qmatrix.problem !q in
      let n = Problem.n problem and m = Problem.m problem in
      let rng = Rng.create (seed + 2) in
      let u = Assignment.random rng ~n ~m in
      let cache = Repair.cache ~m ~n in
      let ok = ref true in
      for _ = 1 to 16 do
        (match Rng.int rng 4 with
        | 0 ->
          for _ = 1 to Rng.int rng (n + 1) do
            u.(Rng.int rng n) <- Rng.int rng m
          done
        | 1 -> ignore (Repair.polish_tracked ~cache !q u ~passes:(1 + Rng.int rng 3) : float * int)
        | 2 ->
          let loads = Assignment.loads problem.Problem.netlist ~m u in
          ignore (Repair.pair_pass !q u ~loads ~max_pairs:5 : bool)
        | _ -> q := Qmatrix.make ~penalty:(5.0 +. Rng.float rng 60.0) problem);
        if not (refreshed_equals_scratch cache !q u) then ok := false
      done;
      !ok)

let with_pool domains f =
  let pool = Dompool.create ~domains in
  Fun.protect ~finally:(fun () -> Dompool.shutdown pool) (fun () -> f pool)

(* Past the fan-out cutoff a refresh recomputes its invalid rows in
   component chunks on the pool; every row is still written by one
   chunk with the sequential kernel. *)
let prop_refresh_pool_invariant =
  QCheck.Test.make
    ~name:"row refresh on 1-, 2- and 4-domain pools: bit-identical to eta_into"
    ~count:6
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let q = Qmatrix.make ~penalty:50.0 (random_problem ~n:(150 + (seed mod 100)) seed) in
      let problem = Qmatrix.problem q in
      let n = Problem.n problem and m = Problem.m problem in
      List.for_all
        (fun domains ->
          with_pool domains (fun pool ->
              let rng = Rng.create (seed + 3) in
              let u = Assignment.random rng ~n ~m in
              let cache = Repair.cache ~m ~n in
              let ok = ref (refreshed_equals_scratch ~pool cache q u) in
              for _ = 1 to 6 do
                for _ = 1 to Rng.int rng (n / 4) do
                  u.(Rng.int rng n) <- Rng.int rng m
                done;
                ignore (Repair.polish_tracked ~cache q u ~passes:1 : float * int);
                if not (refreshed_equals_scratch ~pool cache q u) then ok := false
              done;
              !ok))
        [ 1; 2; 4 ])

(* The solver counts violations from the partner CSR; the audit path
   ([Check.count]) walks the raw budget store.  They must agree. *)
let prop_violations_matches_check =
  QCheck.Test.make ~name:"Qmatrix.violations equals Check.count" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let q = Qmatrix.make ~penalty:50.0 (random_problem seed) in
      let problem = Qmatrix.problem q in
      let n = Problem.n problem and m = Problem.m problem in
      let rng = Rng.create (seed + 4) in
      List.for_all
        (fun _ ->
          let u = Assignment.random rng ~n ~m in
          Qmatrix.violations q u
          = Qbpart_timing.Check.count problem.Problem.constraints problem.Problem.topology
              ~assignment:u)
        (List.init 8 Fun.id))

(* ------------------------------------------------------------------ *)
(* ECO deltas: random in-place edits, the remove/re-add round trip.   *)

module Delta = Qbpart_netlist.Delta
module Component = Qbpart_netlist.Component
module Wire = Qbpart_netlist.Wire

let cname nl j = Component.name (Netlist.component nl j)

(* A random dimension-preserving delta (wire adds/removes, retimes),
   valid by construction: each original wire is removed at most once. *)
let random_inplace_delta rng nl removable =
  let n = Netlist.n nl in
  let distinct () =
    let u = Rng.int rng n in
    let v = (u + 1 + Rng.int rng (n - 1)) mod n in
    (u, v)
  in
  List.concat
    (List.init
       (1 + Rng.int rng 4)
       (fun _ ->
         match Rng.int rng 3 with
         | 0 ->
           let u, v = distinct () in
           [
             Delta.Add_wire
               {
                 u = cname nl u;
                 v = cname nl v;
                 weight = float_of_int (1 + Rng.int rng 3);
               };
           ]
         | 1 -> (
           match !removable with
           | [] -> []
           | ws ->
             let k = Rng.int rng (List.length ws) in
             let w = List.nth ws k in
             removable := List.filteri (fun i _ -> i <> k) ws;
             [ Delta.Remove_wire { u = cname nl (Wire.u w); v = cname nl (Wire.v w) } ])
         | _ ->
           let u, v = distinct () in
           [
             Delta.Retime
               {
                 src = cname nl u;
                 dst = cname nl v;
                 budget = float_of_int (1 + Rng.int rng 3);
               };
           ]))

(* Removing a component and re-adding it (same size, wires, budgets)
   must land on an isomorphic instance: remapping an assignment along
   the returned id maps preserves the objective and every eta block. *)
let prop_remove_readd_roundtrip =
  QCheck.Test.make ~name:"remove-then-re-add round-trips to an isomorphic instance"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      (* P is a fixed MxN matrix, so dimension-changing deltas need a
         P-free problem. *)
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
      let cons = Constraints.Builder.build cons in
      let problem = Problem.make ~constraints:cons nl topo in
      let k = Rng.int rng n in
      let name = cname nl k in
      let size = Netlist.size nl k in
      let lo = (Netlist.adj_offsets nl).(k) in
      let re_wires =
        List.init (Netlist.degree nl k) (fun d ->
            Delta.Add_wire
              {
                u = name;
                v = cname nl (Netlist.adj_targets nl).(lo + d);
                weight = (Netlist.adj_weights nl).(lo + d);
              })
      in
      let re_budgets = ref [] in
      Constraints.iter cons (fun j1 j2 b ->
          if j1 = k then
            re_budgets :=
              Delta.Retime { src = name; dst = cname nl j2; budget = b } :: !re_budgets
          else if j2 = k then
            re_budgets :=
              Delta.Retime { src = cname nl j1; dst = name; budget = b } :: !re_budgets);
      let delta =
        (Delta.Remove_component { name } :: Delta.Add_component { name; size } :: re_wires)
        @ !re_budgets
      in
      match Problem.apply_delta problem delta with
      | Error e -> Alcotest.fail (Delta.error_to_string e)
      | Ok dr ->
        let p' = dr.Problem.dr_problem in
        if (not dr.Problem.dr_dims_changed) || Problem.n p' <> n then false
        else begin
          let u = Assignment.random (Rng.create (seed + 9)) ~n ~m in
          let u' = Array.make n 0 in
          Array.iteri
            (fun j i ->
              if dr.Problem.dr_new_of_old.(j) >= 0 then
                u'.(dr.Problem.dr_new_of_old.(j)) <- i)
            u;
          let readded = ref (-1) in
          Array.iteri (fun j' old -> if old < 0 then readded := j') dr.Problem.dr_old_of_new;
          u'.(!readded) <- u.(k);
          let q = Qmatrix.make ~penalty:50.0 problem in
          let q' = Qmatrix.make ~penalty:50.0 p' in
          let eta = Qmatrix.eta q u and eta' = Qmatrix.eta q' u' in
          let ok = ref true in
          for j = 0 to n - 1 do
            let j' = if j = k then !readded else dr.Problem.dr_new_of_old.(j) in
            for i = 0 to m - 1 do
              if Float.abs (eta.((j * m) + i) -. eta'.((j' * m) + i)) > 1e-9 then
                ok := false
            done
          done;
          let c = Problem.penalized_objective problem ~penalty:50.0 u in
          let c' = Problem.penalized_objective p' ~penalty:50.0 u' in
          !ok && Float.abs (c -. c') <= 1e-9
        end)

(* ------------------------------------------------------------------ *)
(* Flat pooled MTHG vs a boxed-matrix reference implementation.       *)

(* The reference works directly on the boxed [m][n] matrices and
   recomputes every cache from scratch at every step — the semantics
   the flat kernels (contiguous item blocks, cached top-2 pairs,
   cascade pruning, pooled buffers) must reproduce bit for bit. *)
module Oracle = struct
  let desirability criterion cost weight capacity i j =
    let c = cost.(i).(j) and w = weight.(i).(j) in
    match criterion with
    | Mthg.Cost -> c
    | Mthg.Cost_times_weight -> c *. w
    | Mthg.Weight -> w
    | Mthg.Weight_per_capacity ->
      if capacity.(i) > 0.0 then w /. capacity.(i) else infinity

  let construct criterion ~cost ~weight ~capacity ~m ~n =
    let residual = Array.copy capacity in
    let assignment = Array.make n (-1) in
    let unassigned = ref n in
    let stuck = ref false in
    while !unassigned > 0 && not !stuck do
      (* best / second-best feasible desirability, from scratch *)
      let f1 = Array.make n infinity and f2 = Array.make n infinity in
      let i1 = Array.make n (-1) and i2 = Array.make n (-1) in
      for j = 0 to n - 1 do
        if assignment.(j) = -1 then
          for i = 0 to m - 1 do
            if weight.(i).(j) <= residual.(i) then begin
              let f = desirability criterion cost weight capacity i j in
              if f < f1.(j) then begin
                f2.(j) <- f1.(j);
                i2.(j) <- i1.(j);
                f1.(j) <- f;
                i1.(j) <- i
              end
              else if f < f2.(j) then begin
                f2.(j) <- f;
                i2.(j) <- i
              end
            end
          done
      done;
      let best_item = ref (-1) in
      let best_regret = ref neg_infinity in
      for j = 0 to n - 1 do
        if assignment.(j) = -1 then
          if i1.(j) = -1 then stuck := true
          else begin
            let regret = if f2.(j) = infinity then infinity else f2.(j) -. f1.(j) in
            if regret > !best_regret then begin
              best_regret := regret;
              best_item := j
            end
          end
      done;
      if (not !stuck) && !best_item >= 0 then begin
        let j = !best_item in
        let i = i1.(j) in
        assignment.(j) <- i;
        residual.(i) <- residual.(i) -. weight.(i).(j);
        decr unassigned
      end
      else stuck := true
    done;
    if !stuck then None else Some (assignment, residual)

  let residual_of ~weight ~capacity ~m a =
    let residual = Array.copy capacity in
    ignore m;
    Array.iteri (fun j i -> residual.(i) <- residual.(i) -. weight.(i).(j)) a;
    residual

  let shift_pass ~cost ~weight ~m ~n a residual =
    let improved = ref false in
    for j = 0 to n - 1 do
      let from = a.(j) in
      let best = ref from in
      let best_cost = ref cost.(from).(j) in
      for i = 0 to m - 1 do
        if i <> from && weight.(i).(j) <= residual.(i) && cost.(i).(j) < !best_cost
        then begin
          best := i;
          best_cost := cost.(i).(j)
        end
      done;
      if !best <> from then begin
        let i = !best in
        residual.(from) <- residual.(from) +. weight.(from).(j);
        residual.(i) <- residual.(i) -. weight.(i).(j);
        a.(j) <- i;
        improved := true
      end
    done;
    !improved

  let swap_pass ~cost ~weight ~m ~n a residual =
    ignore m;
    let improved = ref false in
    for j1 = 0 to n - 1 do
      for j2 = j1 + 1 to n - 1 do
        let i1 = a.(j1) and i2 = a.(j2) in
        if i1 <> i2 then begin
          let w11 = weight.(i1).(j1)
          and w22 = weight.(i2).(j2)
          and w12 = weight.(i2).(j1)
          and w21 = weight.(i1).(j2) in
          let fits1 = residual.(i1) +. w11 -. w21 >= 0.0 in
          let fits2 = residual.(i2) +. w22 -. w12 >= 0.0 in
          if fits1 && fits2 then begin
            let before = cost.(i1).(j1) +. cost.(i2).(j2) in
            let after = cost.(i2).(j1) +. cost.(i1).(j2) in
            if after < before then begin
              residual.(i1) <- residual.(i1) +. w11 -. w21;
              residual.(i2) <- residual.(i2) +. w22 -. w12;
              a.(j1) <- i2;
              a.(j2) <- i1;
              improved := true
            end
          end
        end
      done
    done;
    !improved

  (* [residual] is the construction's own running residual, not one
     recomputed from the assignment: the two can differ in the last
     bit, which decides a move into a knapsack filled to the brim *)
  let improve ?(swap = true) ~cost ~weight ~m ~n a residual =
    let continue = ref true in
    while !continue do
      let s1 = shift_pass ~cost ~weight ~m ~n a residual in
      let s2 = swap && swap_pass ~cost ~weight ~m ~n a residual in
      continue := s1 || s2
    done

  let cost_of ~cost a =
    let total = ref 0.0 in
    Array.iteri (fun j i -> total := !total +. cost.(i).(j)) a;
    !total

  let solve ?(criteria = Mthg.all_criteria) ?swap ~cost ~weight ~capacity ~m ~n () =
    let best = ref None in
    let best_cost = ref infinity in
    List.iter
      (fun criterion ->
        match construct criterion ~cost ~weight ~capacity ~m ~n with
        | None -> ()
        | Some (a, residual) ->
          improve ?swap ~cost ~weight ~m ~n a residual;
          let c = cost_of ~cost a in
          if !best = None || c < !best_cost then begin
            best := Some a;
            best_cost := c
          end)
      criteria;
    !best

  (* items heaviest first (the same sort call as the solver, so ties
     break identically), each into its cheapest fitting knapsack or,
     when none fits, the roomiest one *)
  let relaxed_fill ~cost ~weight ~capacity ~m ~n =
    let residual = Array.copy capacity in
    let key =
      Array.init n (fun j ->
          let w = ref 0.0 in
          for i = 0 to m - 1 do
            w := Float.max !w weight.(i).(j)
          done;
          !w)
    in
    let order = Array.init n Fun.id in
    Array.sort (fun a b -> Float.compare key.(b) key.(a)) order;
    let a = Array.make n (-1) in
    Array.iter
      (fun j ->
        let best = ref (-1) in
        for i = 0 to m - 1 do
          if weight.(i).(j) <= residual.(i) && (!best = -1 || cost.(i).(j) < cost.(!best).(j))
          then best := i
        done;
        if !best < 0 then begin
          best := 0;
          for i = 1 to m - 1 do
            if residual.(i) > residual.(!best) then best := i
          done
        end;
        a.(j) <- !best;
        residual.(!best) <- residual.(!best) -. weight.(!best).(j))
      order;
    a

  let solve_relaxed ?criteria ?swap ~cost ~weight ~capacity ~m ~n () =
    match solve ?criteria ?swap ~cost ~weight ~capacity ~m ~n () with
    | Some a -> a
    | None ->
      let a = relaxed_fill ~cost ~weight ~capacity ~m ~n in
      (* feasible as [Gap.feasible] says it: loads summed, then compared *)
      let loads = Array.make m 0.0 in
      Array.iteri (fun j i -> loads.(i) <- loads.(i) +. weight.(i).(j)) a;
      if Array.for_all2 ( <= ) loads capacity then
        improve ?swap ~cost ~weight ~m ~n a (residual_of ~weight ~capacity ~m a);
      a
end

let random_gap rng =
  let m = 2 + Rng.int rng 3 in
  let n = 3 + Rng.int rng 8 in
  let cost = Array.init m (fun _ -> Array.init n (fun _ -> Rng.float rng 10.0)) in
  let weight =
    Array.init m (fun _ -> Array.init n (fun _ -> 0.5 +. Rng.float rng 1.5))
  in
  (* slack from comfortable to over-tight so the stuck path shows up *)
  let slack = 0.6 +. Rng.float rng 0.9 in
  let per_knapsack =
    let total = ref 0.0 in
    Array.iter (Array.iter (fun w -> total := !total +. w)) weight;
    !total /. float_of_int (m * m)
  in
  let capacity = Array.make m (per_knapsack *. slack) in
  (cost, weight, capacity, m, n)

let prop_flat_mthg_matches_boxed_oracle =
  QCheck.Test.make ~name:"flat pooled MTHG equals the boxed reference solve" ~count:80
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let cost, weight, capacity, m, n = random_gap rng in
      let g = Gap.make ~cost ~weight ~capacity in
      let ws = Mthg.workspace ~m ~n in
      let expected = Oracle.solve ~cost ~weight ~capacity ~m ~n () in
      let fresh = Mthg.solve g in
      let pooled = Option.map Array.copy (Mthg.solve ~ws g) in
      (* run a second pooled solve to prove buffer reuse cannot bleed
         state into the next call *)
      let pooled_again = Option.map Array.copy (Mthg.solve ~ws g) in
      fresh = expected && pooled = expected && pooled_again = expected)

let prop_solve_relaxed_pooled_deterministic =
  QCheck.Test.make
    ~name:"solve_relaxed: pooled and fresh workspaces return identical assignments"
    ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let cost, weight, capacity, m, n = random_gap rng in
      let g = Gap.make ~cost ~weight ~capacity in
      let ws = Mthg.workspace ~m ~n in
      let fresh = Mthg.solve_relaxed g in
      let pooled = Array.copy (Mthg.solve_relaxed ~ws g) in
      let pooled_again = Array.copy (Mthg.solve_relaxed ~ws g) in
      fresh = pooled && pooled = pooled_again)

(* Instances shaped like Burkard's STEP-4/6 subproblems: w_ij = s_j
   (every knapsack shares one weight order, and the [Weight] criterion
   ties every item onto the same knapsacks), up to ~60 items so
   placements cascade over many refreshes, and total capacity from
   comfortable down to below the total size, where every construction
   gets stuck and [solve_relaxed] falls back to the overflow fill.
   Half the draws use small-integer sizes and costs, for heavy ties. *)
let burkard_gap rng =
  let m = 2 + Rng.int rng 7 in
  let n = 1 + Rng.int rng 60 in
  let ties = Rng.int rng 2 = 0 in
  let draw lo span = if ties then float_of_int (int_of_float lo + Rng.int rng 3) else lo +. Rng.float rng span in
  let sizes = Array.init n (fun _ -> draw 1.0 2.0) in
  let cost = Array.init m (fun _ -> Array.init n (fun _ -> draw 0.0 10.0)) in
  let weight = Array.make m sizes in
  let slack = 0.8 +. Rng.float rng 0.6 in
  let total = Array.fold_left ( +. ) 0.0 sizes in
  let capacity = Array.init m (fun _ -> total /. float_of_int m *. (slack +. Rng.float rng 0.2)) in
  (cost, sizes, weight, capacity, m, n)

let prop_burkard_shaped_mthg_matches_oracle =
  QCheck.Test.make
    ~name:"MTHG on Burkard-shaped instances (w_ij = s_j, ties, over-tight) equals the oracle"
    ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let cost, sizes, weight, capacity, m, n = burkard_gap rng in
      let g = Gap.make_uniform ~cost ~sizes ~capacity in
      (* the solver's own configuration, and the module defaults *)
      let burkard = [ Mthg.Cost; Mthg.Weight ] in
      let expected = Oracle.solve ~cost ~weight ~capacity ~m ~n () in
      let expected_relaxed =
        Oracle.solve_relaxed ~criteria:burkard ~swap:false ~cost ~weight ~capacity ~m ~n ()
      in
      (* one pooled workspace serves every call below, interleaving
         solve and solve_relaxed, so leftover state would show *)
      let ws = Mthg.workspace ~m ~n in
      let relaxed () =
        Array.copy (Mthg.solve_relaxed ~ws ~criteria:burkard ~improve:`Shift g)
      in
      let pooled = Option.map Array.copy (Mthg.solve ~ws g) in
      let r1 = relaxed () in
      let pooled_again = Option.map Array.copy (Mthg.solve ~ws g) in
      let r2 = relaxed () in
      Mthg.solve g = expected
      && pooled = expected
      && pooled_again = expected
      && Mthg.solve_relaxed ~criteria:burkard ~improve:`Shift g = expected_relaxed
      && r1 = expected_relaxed
      && r2 = expected_relaxed)

(* The cheapest-placement return of [Mthg.solve] (DESIGN.md D22) at the
   edges of its rule, against the oracle, which always constructs.  The
   instances are Burkard-shaped with fractional sizes, and every
   knapsack holds its share of each item's first cheapest knapsack,
   summed in item order, with room, except where the draw says:
   - [Room]: no exception;
   - [Exact]: one knapsack's capacity is its share summed in another
     order, moved by -1, 0 or +1 ulp, so whether its last item still
     fits depends on the order the construction subtracts in;
   - [Miss]: one knapsack is short by half of its smallest item;
   - [Ties]: costs in {0, 1, 2}, so minima tie across knapsacks, and
     every knapsack could hold every item;
   - [Infinite]: the last item costs +inf everywhere, so the [Cost]
     construction gets stuck and the [Weight] one answers;
   - [Weight_first]: ties again, and the criteria do not lead with
     [Cost], so an earlier construction at the same cost wins. *)
type cheapest_draw = Room | Exact | Miss | Ties | Infinite | Weight_first

let cheapest_gap rng kind =
  let m = 2 + Rng.int rng 5 in
  let n = 4 + Rng.int rng 37 in
  let ties = kind = Ties || kind = Weight_first in
  let sizes = Array.init n (fun _ -> 0.1 +. Rng.float rng 1.9) in
  let cost =
    Array.init m (fun _ ->
        Array.init n (fun _ ->
            if ties then float_of_int (Rng.int rng 3) else Rng.float rng 10.0))
  in
  if kind = Infinite then Array.iter (fun row -> row.(n - 1) <- infinity) cost;
  let first_cheapest j =
    let b = ref 0 in
    for i = 1 to m - 1 do
      if cost.(i).(j) < cost.(!b).(j) then b := i
    done;
    !b
  in
  let a = Array.init n first_cheapest in
  let load = Array.make m 0.0 in
  Array.iteri (fun j i -> load.(i) <- load.(i) +. sizes.(j)) a;
  let total = Array.fold_left ( +. ) 0.0 sizes in
  let capacity =
    Array.map
      (fun l -> if kind = Ties then 2.0 *. total else (l *. (1.1 +. Rng.float rng 0.4)) +. 0.5)
      load
  in
  let k = a.(Rng.int rng n) in
  let mine = List.filter (fun j -> a.(j) = k) (List.init n Fun.id) |> Array.of_list in
  (match kind with
  | Exact ->
    Rng.shuffle rng mine;
    let x = Array.fold_left (fun acc j -> acc +. sizes.(j)) 0.0 mine in
    capacity.(k) <-
      (match Rng.int rng 3 with 0 -> Float.pred x | 1 -> x | _ -> Float.succ x)
  | Miss ->
    let smallest = Array.fold_left (fun acc j -> Float.min acc sizes.(j)) infinity mine in
    capacity.(k) <- load.(k) -. (smallest /. 2.0)
  | Room | Ties | Infinite | Weight_first -> ());
  (cost, sizes, Array.make m sizes, capacity, m, n)

let prop_cheapest_placement_matches_oracle =
  QCheck.Test.make ~name:"MTHG cheapest-placement return equals the oracle at its edges"
    ~count:600
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let kind = [| Room; Exact; Miss; Ties; Infinite; Weight_first |].(seed mod 6) in
      let cost, sizes, weight, capacity, m, n = cheapest_gap rng kind in
      let g = Gap.make_uniform ~cost ~sizes ~capacity in
      let lists =
        match kind with
        | Weight_first ->
          Mthg.
            [
              [ Weight; Cost ];
              [ Cost_times_weight; Cost; Weight ];
              [ Weight_per_capacity; Cost ];
              [ Weight ];
            ]
        | Room | Exact | Miss | Ties | Infinite -> [ [ Mthg.Cost; Mthg.Weight ]; Mthg.all_criteria ]
      in
      let ws = Mthg.workspace ~m ~n in
      List.for_all
        (fun criteria ->
          let expected = Oracle.solve ~criteria ~cost ~weight ~capacity ~m ~n () in
          let expected_relaxed =
            Oracle.solve_relaxed ~criteria ~swap:false ~cost ~weight ~capacity ~m ~n ()
          in
          Mthg.solve ~criteria g = expected
          && Option.map Array.copy (Mthg.solve ~ws ~criteria g) = expected
          && Mthg.solve_relaxed ~ws ~criteria ~improve:`Shift g = expected_relaxed)
        lists)

(* MTHG's memo of the cost-independent constructions, the way Burkard
   drives it: one workspace, a borrowed STEP-4 instance and its STEP-6
   twin ([Gap.with_cost]: same weights, capacities and memo key), fresh
   costs before every call, and now and then an in-place capacity edit
   that the memo must miss — down to over-tight capacities where the
   constructions get stuck.  Every pooled answer must be the answer of
   a workspace that has never seen the instance. *)
let prop_mthg_memo_matches_fresh =
  QCheck.Test.make
    ~name:"MTHG memo (STEP-4/6 twins, capacity edits, stuck) == fresh workspace" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let _, sizes, _, capacity, m, n = burkard_gap rng in
      let ties = Rng.int rng 2 = 0 in
      let eta = Array.make (m * n) 0.0 and h = Array.make (m * n) 0.0 in
      let twins sizes =
        let g4 = Gap.borrow ~cost:eta ~weight:(Gap.uniform_weights ~sizes ~m) ~capacity ~n in
        (g4, Gap.with_cost g4 h)
      in
      let g4, g6 = twins sizes in
      let g4 = ref g4 and g6 = ref g6 in
      let ws = Mthg.workspace ~m ~n in
      let draw () = if ties then float_of_int (Rng.int rng 3) else Rng.float rng 10.0 in
      let total = Array.fold_left ( +. ) 0.0 sizes in
      let ok = ref true in
      for _ = 1 to 16 do
        if Rng.int rng 8 = 0 then begin
          (* another instance of the same shape on the same workspace:
             a new weight side, so a new memo key *)
          let a, b = twins (Array.map (fun s -> s *. (0.8 +. Rng.float rng 0.4)) sizes) in
          g4 := a;
          g6 := b
        end;
        Array.iteri (fun r _ -> eta.(r) <- draw ()) eta;
        Array.iteri (fun r _ -> h.(r) <- h.(r) +. draw ()) h;
        if Rng.int rng 4 = 0 then begin
          let i = Rng.int rng m in
          capacity.(i) <- total /. float_of_int m *. (0.5 +. Rng.float rng 1.0)
        end;
        let criteria =
          match Rng.int rng 4 with
          | 0 -> [ Mthg.Cost; Mthg.Weight ]
          | 1 -> [ Mthg.Weight_per_capacity; Mthg.Cost ]
          | 2 -> [ Mthg.Weight ]
          | _ -> Mthg.all_criteria
        in
        let improve =
          match Rng.int rng 3 with 0 -> `Shift | 1 -> `Shift_and_swap | _ -> `None
        in
        List.iter
          (fun g ->
            let fresh () = Mthg.workspace ~m ~n in
            let relaxed = Array.copy (Mthg.solve_relaxed ~ws ~criteria ~improve g) in
            if relaxed <> Mthg.solve_relaxed ~ws:(fresh ()) ~criteria ~improve g then ok := false;
            let exact = Option.map Array.copy (Mthg.solve ~ws ~criteria ~improve g) in
            if exact <> Mthg.solve ~ws:(fresh ()) ~criteria ~improve g then ok := false)
          (if Rng.int rng 2 = 0 then [ !g4; !g6 ] else [ !g6; !g4 ])
      done;
      !ok)

(* The shift's candidate lists (DESIGN.md D24), the sorted first
   regrets, the active list and the shared minima scan (D26) against
   the oracle, whose shift scans every knapsack of every item at every
   pass and whose construction recomputes every top-2 at every step,
   and against the [Mthg] the last three replaced ([Mthg_reference]).
   Each case draws one shape, m in {1, 2, 3, 5, 16, 17} (or, now and
   then, 257, where no list is kept), n from 0 to 40 (now and then up
   to 300), and several instances of it that one workspace solves in
   turn, under both improvers and both entry points, so a list or an
   order left over from another call, criterion or instance would show.
   Costs are continuous, drawn from {0, 1, 2} so that many knapsacks
   and regrets tie, or drawn from {+0.0, -0.0, 1, 2}, so that an item
   often costs +0.0 at one knapsack and -0.0 at a later one: its regret
   is -0.0, which must order as +0.0.  Weights depend on the knapsack
   or not, and now and then an item fits a single knapsack (regret
   +infinity); capacities run from over-tight, where every construction
   gets stuck, through tight, where placements cascade, to loose.  The
   criteria lead with [Cost], with [Cost_times_weight] or with a
   cost-blind one, whose construction leaves the shift the most to
   do. *)
let list_gap rng ~m ~n =
  let draw =
    match Rng.int rng 3 with
    | 0 -> fun () -> Rng.float rng 10.0
    | 1 -> fun () -> float_of_int (Rng.int rng 3)
    | _ -> fun () -> [| 0.0; -0.0; 1.0; 2.0 |].(Rng.int rng 4)
  in
  let cost = Array.init m (fun _ -> Array.init n (fun _ -> draw ())) in
  let sizes = Array.init n (fun _ -> 0.5 +. Rng.float rng 1.5) in
  let weight =
    if Rng.int rng 2 = 0 then Array.init m (fun _ -> Array.copy sizes)
    else Array.init m (fun _ -> Array.map (fun s -> s *. (0.5 +. Rng.float rng 1.0)) sizes)
  in
  let total = Array.fold_left ( +. ) 0.0 sizes in
  let slack = 0.7 +. Rng.float rng 0.9 in
  let capacity =
    Array.init m (fun _ -> total /. float_of_int m *. slack *. (0.8 +. Rng.float rng 0.4))
  in
  (* a few items too heavy for every knapsack but one *)
  if m > 1 && Rng.int rng 3 = 0 then
    for _ = 1 to 1 + Rng.int rng 3 do
      if n > 0 then begin
        let j = Rng.int rng n and keep = Rng.int rng m in
        Array.iteri (fun i row -> if i <> keep then row.(j) <- capacity.(i) +. 1.0) weight
      end
    done;
  (cost, weight, capacity)

let mthg_criteria rng =
  match Rng.int rng 5 with
  | 0 -> [ Mthg.Weight ]
  | 1 -> [ Mthg.Weight_per_capacity; Mthg.Cost ]
  | 2 -> [ Mthg.Cost; Mthg.Weight ]
  | 3 -> [ Mthg.Cost_times_weight; Mthg.Cost ]
  | _ -> Mthg.all_criteria

let prop_shift_lists_match_oracle =
  QCheck.Test.make ~name:"MTHG shift with candidate lists equals the full-scan oracle"
    ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = if seed mod 25 = 0 then 257 else [| 1; 2; 3; 5; 16; 17 |].(Rng.int rng 6) in
      let n =
        if m > 17 then Rng.int rng 13
        else if Rng.int rng 10 = 0 then Rng.int rng 301
        else Rng.int rng 41
      in
      let ws = Mthg.workspace ~m ~n and old_ws = Mthg_reference.Mthg.workspace ~m ~n in
      List.for_all
        (fun _ ->
          let cost, weight, capacity = list_gap rng ~m ~n in
          let g = Gap.make ~cost ~weight ~capacity in
          let criteria = mthg_criteria rng in
          List.for_all
            (fun improve ->
              let swap = improve = `Shift_and_swap in
              let expected = Oracle.solve ~criteria ~swap ~cost ~weight ~capacity ~m ~n () in
              let expected_relaxed =
                Oracle.solve_relaxed ~criteria ~swap ~cost ~weight ~capacity ~m ~n ()
              in
              Option.map Array.copy (Mthg.solve ~ws ~criteria ~improve g) = expected
              && Option.map Array.copy
                   (Mthg_reference.Mthg.solve ~ws:old_ws ~criteria ~improve g)
                 = expected
              && Mthg.solve_relaxed ~ws ~criteria ~improve g = expected_relaxed
              && Mthg_reference.Mthg.solve_relaxed ~ws:old_ws ~criteria ~improve g
                 = expected_relaxed)
            [ `Shift; `Shift_and_swap ])
        [ 1; 2; 3 ])

(* [Improve.shift] and [Improve.shift_and_swap] from a feasible start
   against the oracle's full passes, on crowded instances: every item
   prefers the first eight knapsacks, which hold an item or two each,
   and starts in one of them where it fits, or else in one of the
   roomy others.  The shifts contend there, so an item that found no
   room in one pass moves in a later one, after another item left for
   a cheaper knapsack.  With m = 257 no list is
   kept, and each visit's scan decides whether its item stays active
   (DESIGN.md D35). *)
let prop_shift_crowded_matches_oracle =
  QCheck.Test.make ~name:"shift from a crowded start equals the full-pass oracle" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = [| 9; 17; 257 |].(Rng.int rng 3) and n = 1 + Rng.int rng 40 in
      let cheap = 8 in
      let cost =
        Array.init m (fun i ->
            Array.init n (fun _ ->
                if i < cheap then [| 0.0; -0.0; 1.0; 2.0 |].(Rng.int rng 4)
                else float_of_int (3 + Rng.int rng 2)))
      in
      let sizes = Array.init n (fun _ -> 0.5 +. Rng.float rng 1.5) in
      let weight = Array.init m (fun _ -> Array.copy sizes) in
      let total = Array.fold_left ( +. ) 0.0 sizes in
      let capacity = Array.init m (fun i -> if i < cheap then 1.0 +. Rng.float rng 2.0 else total) in
      let room = Array.copy capacity in
      let start =
        Array.init n (fun j ->
            let i = Rng.int rng cheap in
            if Rng.int rng 2 = 0 && sizes.(j) <= room.(i) then begin
              room.(i) <- room.(i) -. sizes.(j);
              i
            end
            else cheap + Rng.int rng (m - cheap))
      in
      let g = Gap.make ~cost ~weight ~capacity in
      List.for_all
        (fun swap ->
          let a = Array.copy start in
          Oracle.improve ~swap ~cost ~weight ~m ~n a (Oracle.residual_of ~weight ~capacity ~m a);
          (if swap then Improve.shift_and_swap g start else Improve.shift g start) = a)
        [ false; true ])

(* Costs of -infinity, through [Gap.make], and NaN, through
   [Gap.borrow], which does not check them.  Two -infinity
   desirabilities among an item's fitting knapsacks give a NaN regret,
   which the heap's order does not rank, so the construction puts
   every first entry on the heap as before (DESIGN.md D26); a NaN cost
   is never at its item's minimum and keeps it on the shift's active
   list.  The oracle ranks a NaN regret otherwise than the heap does,
   so these are compared with [Mthg_reference] alone, bit for bit,
   with [Cost] leading the criteria or not and one workspace each. *)
let prop_nan_regrets_match_reference =
  QCheck.Test.make ~name:"MTHG on -inf and NaN costs equals the heap-only construction"
    ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = [| 1; 2; 3; 5; 16; 17 |].(Rng.int rng 6) in
      let n = Rng.int rng 61 in
      let ws = Mthg.workspace ~m ~n and old_ws = Mthg_reference.Mthg.workspace ~m ~n in
      List.for_all
        (fun _ ->
          let cost, weight, capacity = list_gap rng ~m ~n in
          let odd = if Rng.int rng 4 = 0 then Float.nan else neg_infinity in
          let share = 1 + Rng.int rng 4 in
          Array.iter
            (fun row -> Array.iteri (fun j _ -> if Rng.int rng share = 0 then row.(j) <- odd) row)
            cost;
          let g =
            let flat rows = Array.init (m * n) (fun r -> rows.(r mod m).(r / m)) in
            Gap.borrow ~cost:(flat cost) ~weight:(flat weight) ~capacity ~n
          in
          let criteria = mthg_criteria rng in
          List.for_all
            (fun improve ->
              Option.map Array.copy (Mthg.solve ~ws ~criteria ~improve g)
              = Mthg_reference.Mthg.solve ~ws:old_ws ~criteria ~improve g
              && Array.copy (Mthg.solve_relaxed ~ws ~criteria ~improve g)
                 = Mthg_reference.Mthg.solve_relaxed ~ws:old_ws ~criteria ~improve g)
            [ `Shift; `Shift_and_swap ])
        [ 1; 2; 3 ])

(* The criterion legs fork-joined on a domain pool (DESIGN.md D28)
   against the sequential solve and [Mthg_reference], bit for bit, at
   pool sizes 1, 2 and 3, each pool size with a workspace of its own
   that solves every instance of the case in turn (so the leg
   workspaces' memos and lists are reused).  m is drawn as in
   [prop_shift_lists_match_oracle], 257 (no lists kept) included.  On
   top of [list_gap]'s ties, -0.0 costs and stuck constructions: every
   cost now and then equal, so that every leg ties and [Cost], the
   first, must win; -infinity and NaN costs (through [Gap.borrow]).
   Each case solves six instances, each at random loose (capacities
   ten times larger, where the cheapest placement mostly fits and the
   solve returns before any construction, D22) or tight, so that a
   workspace's scan runs before the fork after a scan that fitted and
   inside leg 0 after one that did not (D35), through every transition
   between the two.  The criteria lists have 1, 2 and 4 entries.  A
   pool whose helper is parked runs the legs on the caller alone, in
   the same workspaces, so both schedules are checked. *)
let forked_pools = lazy [ Dompool.acquire ~domains:2; Dompool.acquire ~domains:3 ]

let prop_forked_mthg_matches_sequential =
  QCheck.Test.make ~name:"MTHG with forked criterion legs equals the sequential solve"
    ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = if seed mod 25 = 0 then 257 else [| 1; 2; 3; 5; 16; 17 |].(Rng.int rng 6) in
      let n =
        if m > 17 then Rng.int rng 13
        else if Rng.int rng 10 = 0 then Rng.int rng 301
        else Rng.int rng 41
      in
      let pools = Dompool.sequential :: Lazy.force forked_pools in
      let wss = List.map (fun _ -> Mthg.workspace ~m ~n) pools in
      let seq_ws = Mthg.workspace ~m ~n and old_ws = Mthg_reference.Mthg.workspace ~m ~n in
      List.for_all
        (fun _ ->
          let cost, weight, capacity = list_gap rng ~m ~n in
          (match Rng.int rng 4 with
          | 0 -> Array.iter (fun row -> Array.fill row 0 n 1.0) cost
          | 1 ->
            let odd = if Rng.int rng 2 = 0 then Float.nan else neg_infinity in
            Array.iter
              (fun row -> Array.iteri (fun j _ -> if Rng.int rng 4 = 0 then row.(j) <- odd) row)
              cost
          | _ -> ());
          if Rng.int rng 2 = 0 then Array.iteri (fun i c -> capacity.(i) <- 10.0 *. c) capacity;
          let g =
            let flat rows = Array.init (m * n) (fun r -> rows.(r mod m).(r / m)) in
            Gap.borrow ~cost:(flat cost) ~weight:(flat weight) ~capacity ~n
          in
          let criteria =
            match Rng.int rng 3 with
            | 0 -> [ [| Mthg.Cost; Mthg.Weight; Mthg.Weight_per_capacity |].(Rng.int rng 3) ]
            | 1 -> [ Mthg.Cost; Mthg.Weight ]
            | _ -> mthg_criteria rng
          in
          List.for_all
            (fun improve ->
              let expected = Mthg_reference.Mthg.solve ~ws:old_ws ~criteria ~improve g in
              let expected_relaxed =
                Array.copy (Mthg_reference.Mthg.solve_relaxed ~ws:old_ws ~criteria ~improve g)
              in
              Option.map Array.copy (Mthg.solve ~ws:seq_ws ~criteria ~improve g) = expected
              && List.for_all2
                   (fun pool ws ->
                     Option.map Array.copy (Mthg.solve ~ws ~pool ~criteria ~improve g) = expected
                     && Mthg.solve_relaxed ~ws ~pool ~criteria ~improve g = expected_relaxed)
                   pools wss)
            [ `Shift; `Shift_and_swap ])
        [ 1; 2; 3; 4; 5; 6 ])

(* ------------------------------------------------------------------ *)
(* Repair's candidate-row cache (DESIGN.md D16) against fresh rows.   *)

(* The coordinate pass, polish and repair reference: the same move
   rule as [Repair], every row computed from scratch with
   [Qmatrix.candidate_costs] at the moment it is read. *)
module Fresh = struct
  let coordinate_pass q u ~loads ~delta ~dviol =
    let p = Qmatrix.problem q in
    let nl = p.Problem.netlist in
    let capacity = Qbpart_topology.Topology.capacity_array p.Problem.topology in
    let m = Problem.m p in
    let moved = ref false in
    for j = 0 to Problem.n p - 1 do
      let row = Qmatrix.candidate_costs q u ~j in
      let from = u.(j) and s = Netlist.size nl j in
      let overfull = loads.(from) > capacity.(from) in
      let best = ref from and best_cost = ref row.(from) in
      for i = 0 to m - 1 do
        if i <> from && loads.(i) +. s <= capacity.(i) then
          if
            row.(i) < !best_cost
            || (overfull && !best = from && row.(i) <= !best_cost +. 1e-9)
          then begin
            best := i;
            best_cost := row.(i)
          end
      done;
      if !best <> from then begin
        delta := !delta +. (!best_cost -. row.(from));
        dviol := !dviol + Qmatrix.violations_delta q u ~j ~i:!best;
        loads.(from) <- loads.(from) -. s;
        loads.(!best) <- loads.(!best) +. s;
        u.(j) <- !best;
        moved := true
      end
    done;
    !moved

  let loads q u =
    let p = Qmatrix.problem q in
    Assignment.loads p.Problem.netlist ~m:(Problem.m p) u

  let polish_tracked q u ~passes =
    let loads = loads q u and delta = ref 0.0 and dviol = ref 0 in
    let k = ref passes in
    while !k > 0 && coordinate_pass q u ~loads ~delta ~dviol do
      decr k
    done;
    (!delta, !dviol)

  let to_feasible q u ~rounds =
    let loads = loads q u and delta = ref 0.0 in
    let viol = ref (Qmatrix.violations q u) in
    let round = ref 0 and continue = ref true in
    while !continue && !round < rounds && !viol > 0 do
      incr round;
      let c1 = ref false and k = ref 5 in
      while !k > 0 && coordinate_pass q u ~loads ~delta ~dviol:viol do
        c1 := true;
        decr k
      done;
      let c2 = Repair.pair_pass ~dviol:viol q u ~loads ~max_pairs:400 in
      continue := !c1 || c2
    done;
    !viol = 0
end

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

(* ------------------------------------------------------------------ *)
(* The row kernel against the kernel it replaced (DESIGN.md D23).     *)

(* [Qmatrix.candidate_costs_at] as it stood before it read B
   transposed, unrolled the wire loop and walked delay-order prefixes
   for the penalties: two comparisons per partition and partner, the
   j < j' orientation read down a column of B.  Verbatim but for the
   accessors of the abstract matrix. *)
module Old_kernel = struct
  let p_column (pr : Problem.t) ~m ~j ~off out =
    match pr.Problem.p with
    | None -> Array.fill out off m 0.0
    | Some p ->
      let alpha = pr.Problem.alpha in
      for i = 0 to m - 1 do
        out.(off + i) <- alpha *. p.(i).(j)
      done

  let candidate_costs_at q u ~j ~off out =
    let nl = (Qmatrix.problem q).Problem.netlist in
    let topo = (Qmatrix.problem q).Problem.topology in
    let cons = (Qmatrix.problem q).Problem.constraints in
    let m = Problem.m (Qmatrix.problem q) in
    let bf = Topology.b_flat topo and df = Topology.d_flat topo in
    let pen = Qmatrix.penalty q in
    p_column (Qmatrix.problem q) ~m ~j ~off out;
    let xadj = Netlist.adj_offsets nl in
    let anbr = Netlist.adj_targets nl in
    let awgt = Netlist.adj_weights nl in
    for k = xadj.(j) to xadj.(j + 1) - 1 do
      let j' = anbr.(k) and w = awgt.(k) in
      let at' = u.(j') in
      if j < j' then
        for i = 0 to m - 1 do
          out.(off + i) <- out.(off + i) +. (w *. bf.((i * m) + at'))
        done
      else begin
        let row = at' * m in
        for i = 0 to m - 1 do
          out.(off + i) <- out.(off + i) +. (w *. bf.(row + i))
        done
      end
    done;
    let poff = Constraints.partner_offsets cons in
    let pids = Constraints.partner_ids cons in
    let pbout = Constraints.partner_budget_out cons in
    let pbin = Constraints.partner_budget_in cons in
    for k = poff.(j) to poff.(j + 1) - 1 do
      let at' = u.(pids.(k)) in
      let row = at' * m in
      let budget_out = pbout.(k) and budget_in = pbin.(k) in
      for i = 0 to m - 1 do
        (* one penalty per violated direction: both directed budgets of
           a pair can be broken simultaneously *)
        if df.((i * m) + at') > budget_out then out.(off + i) <- out.(off + i) +. pen;
        if df.(row + i) > budget_in then out.(off + i) <- out.(off + i) +. pen
      done
    done

  let candidate_costs q u ~j =
    let out = Array.make (Problem.m (Qmatrix.problem q)) 0.0 in
    candidate_costs_at q u ~j ~off:0 out;
    out
end

(* Instances that reach every branch of the kernel: m in
   {1, 2, 3, 5, 9, 16} (every remainder of the 4-way unroll),
   non-integer P, wire weights and penalties, asymmetric B and D, D
   drawn from five levels so delays tie, budgets equal to a delay
   level, and budgets stored in one direction only, which leaves the
   other at +infinity.  [~integral:true] draws P (negative entries
   too), the wire weights and B as integers instead, so the surface is
   exact under an integral penalty (DESIGN.md D25) and the row cache
   patches its rows. *)
let kernel_problem ?(integral = false) seed =
  let rng = Rng.create seed in
  let m = [| 1; 2; 3; 5; 9; 16 |].(Rng.int rng 6) in
  let n = 4 + Rng.int rng 30 in
  let g = Generator.generate rng (Generator.default_params ~n ~wires:(3 * n)) in
  let draw ~int ~frac = if integral then float_of_int (int ()) else frac () in
  let nl =
    Reweight.netlist g (fun w ->
        draw
          ~int:(fun () -> 1 + Rng.int rng 5)
          ~frac:(fun () -> (0.37 *. Wire.weight w) +. Rng.float rng 0.61))
  in
  let levels = [| 0.0; 0.5; 1.25; 2.0; 3.5 |] in
  let b =
    Array.init m (fun _ ->
        Array.init m (fun _ ->
            draw ~int:(fun () -> Rng.int rng 7) ~frac:(fun () -> Rng.float rng 2.7)))
  in
  let d = Array.init m (fun _ -> Array.init m (fun _ -> levels.(Rng.int rng 5))) in
  let capacity = Netlist.total_size nl /. float_of_int m *. (1.05 +. Rng.float rng 0.4) in
  let topo = Topology.make ~capacities:(Array.make m capacity) ~b ~d () in
  let cons = Constraints.Builder.create ~n in
  for _ = 1 to 2 * n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then begin
      let budget =
        match Rng.int rng 3 with
        | 0 -> levels.(Rng.int rng 5)
        | 1 -> Rng.float rng 4.0
        | _ -> float_of_int (Rng.int rng 4)
      in
      if Rng.int rng 4 = 0 then Constraints.Builder.add_sym cons j1 j2 budget
      else Constraints.Builder.add cons j1 j2 budget
    end
  done;
  let p =
    if Rng.int rng 4 = 0 then None
    else
      Some
        (Array.init m (fun _ ->
             Array.init n (fun _ ->
                 draw ~int:(fun () -> Rng.int rng 9 - 4) ~frac:(fun () -> Rng.float rng 3.3))))
  in
  Problem.make ?p ~constraints:(Constraints.Builder.build cons) nl topo

let prop_kernel_matches_old =
  QCheck.Test.make ~name:"row kernel equals the kernel it replaced, bit for bit" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = kernel_problem seed in
      let rng = Rng.create (seed + 9) in
      let penalty = if Rng.int rng 4 = 0 then 1e12 else 0.5 +. Rng.float rng 40.0 in
      let q = Qmatrix.make ~penalty problem in
      let n = Problem.n problem and m = Problem.m problem in
      List.for_all
        (fun _ ->
          let u = Assignment.random rng ~n ~m in
          List.for_all
            (fun j ->
              Array.for_all2 same_bits (Qmatrix.candidate_costs q u ~j)
                (Old_kernel.candidate_costs q u ~j))
            (List.init n Fun.id))
        [ 1; 2; 3 ])

(* STEP 3 reads xi once per iteration, over iterates that share most
   of their positions, in rounds whose matrices differ in penalty; one
   memo serves them all as Burkard's workspace does, so it must forget
   every entry when the round's matrix (or the rule) changes. *)
let prop_omega_matches_per_entry_walk =
  QCheck.Test.make ~name:"omega equals the per-entry walk bit for bit (both rules)" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = kernel_problem seed in
      let n = Problem.n problem and m = Problem.m problem in
      let rng = Rng.create (seed + 4) in
      let memo = Qmatrix.omega_memo ~m ~n in
      let u = Assignment.random rng ~n ~m in
      List.for_all
        (fun (penalty, rule) ->
          let q = Qmatrix.make ~penalty problem in
          let walk = Omega_reference.by_entry ~rule q in
          List.for_all
            (fun _ ->
              for _ = 1 to 1 + Rng.int rng 3 do
                u.(Rng.int rng n) <- Rng.int rng m
              done;
              same_bits (Qmatrix.xi ~rule q memo u) (Omega_reference.xi walk ~m u))
            (List.init 6 Fun.id))
        [
          (13.7, Qmatrix.Solver);
          (109.6, Qmatrix.Solver);
          (109.6, Qmatrix.Paper);
          (876.8, Qmatrix.Paper);
          (876.8, Qmatrix.Solver);
        ])

(* Integer wire weights, no P and a symmetric grid B: many rows tie at
   their minimum.  Capacities from 0.9 of an even split leave
   partitions overfull under a random placement, where the pass's tie
   rule moves a component sideways off its row's minimum. *)
let tie_problem seed =
  let rng = Rng.create seed in
  let n = 10 + Rng.int rng 30 in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires:(2 * n)) in
  let rows, cols = if Rng.int rng 2 = 0 then (2, 2) else (2, 3) in
  let m = rows * cols in
  let capacity = Netlist.total_size nl /. float_of_int m *. (0.9 +. Rng.float rng 0.4) in
  let topo = Grid.make ~rows ~cols ~capacity () in
  let cons = Constraints.Builder.create ~n in
  for _ = 1 to n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then Constraints.Builder.add cons j1 j2 (float_of_int (Rng.int rng 3))
  done;
  Problem.make ~constraints:(Constraints.Builder.build cons) nl topo

(* Integral instances built around one edge of the patch: [`One_way]
   stores each budget from the lower id to the higher, so every other
   direction is +inf; [`Wired] puts budgets both ways on every wire, so
   one move patches a row's wire and penalty terms together. *)
let edge_problem ~m ~pairs seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 10 in
  let g = Generator.generate rng (Generator.default_params ~n ~wires:(2 * n)) in
  let nl = Reweight.netlist g (fun _ -> float_of_int (1 + Rng.int rng 3)) in
  let b = Array.init m (fun _ -> Array.init m (fun _ -> float_of_int (Rng.int rng 5))) in
  let d = Array.init m (fun _ -> Array.init m (fun _ -> float_of_int (Rng.int rng 4))) in
  let capacity = Netlist.total_size nl /. float_of_int m *. 1.3 in
  let topo = Topology.make ~capacities:(Array.make m capacity) ~b ~d () in
  let cons = Constraints.Builder.create ~n in
  (match pairs with
  | `One_way ->
    for _ = 1 to 2 * n do
      let j1 = Rng.int rng n and j2 = Rng.int rng n in
      if j1 < j2 then Constraints.Builder.add cons j1 j2 (float_of_int (Rng.int rng 3))
    done
  | `Wired ->
    Netlist.iter_wires nl (fun w ->
        Constraints.Builder.add cons (Wire.u w) (Wire.v w) (float_of_int (Rng.int rng 3));
        Constraints.Builder.add cons (Wire.v w) (Wire.u w) (float_of_int (Rng.int rng 3))));
  Problem.make ~constraints:(Constraints.Builder.build cons) nl topo

(* The least non-NaN entry, as the cache keeps it *)
let least row = Array.fold_left (fun acc x -> if x < acc then x else acc) infinity row

(* Every valid row of [cache], and its minimum, equals a fresh row at
   the positions the cache prices, bit for bit: the rows a move
   patched (DESIGN.md D25) as much as those the kernel computed. *)
let rows_match_fresh cache =
  match Repair.binding cache with
  | None -> true
  | Some (q, pos) ->
    List.for_all
      (fun j ->
        match Repair.valid_row cache j with
        | None -> true
        | Some (row, low) ->
          let fresh = Qmatrix.candidate_costs q pos ~j in
          Array.for_all2 same_bits row fresh && same_bits low (least fresh))
      (List.init (Array.length pos) Fun.id)

(* the penalties of the adaptive rounds, 50 * 8^k: integral, so an
   integral problem's surfaces are exact and its rows are patched *)
let round_penalties = [| 50.0; 400.0; 3200.0 |]

let prop_row_cache_matches_fresh =
  QCheck.Test.make
    ~name:"cached polish/to_feasible == fresh-row reference, bit for bit, across edits"
    ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create (seed + 5) in
      let problem =
        match seed mod 5 with
        | 0 -> kernel_problem seed
        | 1 -> tie_problem seed
        | 2 -> kernel_problem ~integral:true seed
        | 3 -> edge_problem ~m:(1 + ((seed / 5) mod 5)) ~pairs:`One_way seed
        | _ -> edge_problem ~m:(1 + ((seed / 5) mod 5)) ~pairs:`Wired seed
      in
      let penalty () =
        if Rng.int rng 2 = 0 then round_penalties.(Rng.int rng 3) else 5.0 +. Rng.float rng 60.0
      in
      let q = ref (Qmatrix.make ~penalty:(if Rng.int rng 2 = 0 then 13.7 else 50.0) problem) in
      let strict = ref (Qmatrix.make ~penalty:1e12 (Qmatrix.problem !q)) in
      let problem () = Qmatrix.problem !q in
      let n = Problem.n (problem ()) and m = Problem.m (problem ()) in
      let u = Assignment.random rng ~n ~m in
      let r = Assignment.copy u in
      (* one cache serves every call below, on every surface *)
      let cache = Repair.cache ~m ~n in
      let removable = ref (Array.to_list (Netlist.wires (problem ()).Problem.netlist)) in
      let ok = ref true in
      let expect b = if not b then ok := false in
      for _ = 1 to 24 do
        (match Rng.int rng 10 with
        | 0 ->
          let passes = 1 + Rng.int rng 3 in
          let dc, dv = Repair.polish_tracked ~cache !q u ~passes in
          let dc', dv' = Fresh.polish_tracked !q r ~passes in
          expect (same_bits dc dc' && dv = dv')
        | 1 ->
          let passes = 1 + Rng.int rng 4 in
          Repair.polish ~cache !strict u ~passes;
          ignore (Fresh.polish_tracked !strict r ~passes : float * int)
        | 2 ->
          let rounds = 1 + Rng.int rng 4 in
          expect (Repair.to_feasible ~cache !strict u ~rounds = Fresh.to_feasible !strict r ~rounds)
        | 3 ->
          (* one bare pass, with the caller's loads and running sums *)
          let loads = Fresh.loads !q u and loads' = Fresh.loads !q r in
          let delta = ref 0.25 and dviol = ref 3 and delta' = ref 0.25 and dviol' = ref 3 in
          let scratch = Array.make m nan in
          let moved = Repair.coordinate_pass ~delta ~dviol ~cache !q u ~loads ~scratch in
          let moved' = Fresh.coordinate_pass !q r ~loads:loads' ~delta:delta' ~dviol:dviol' in
          expect
            (moved = moved' && same_bits !delta !delta' && !dviol = !dviol'
            && Array.for_all2 same_bits loads loads')
        | 4 ->
          (* an external pair pass between cached calls *)
          let surface = if Rng.int rng 2 = 0 then !q else !strict in
          let loads = Fresh.loads surface u and loads' = Fresh.loads surface r in
          let a = Repair.pair_pass surface u ~loads ~max_pairs:5 in
          let b = Repair.pair_pass surface r ~loads:loads' ~max_pairs:5 in
          expect (a = b)
        | 5 ->
          (* random jumps *)
          for _ = 1 to 1 + Rng.int rng 4 do
            let j = Rng.int rng n and i = Rng.int rng m in
            u.(j) <- i;
            r.(j) <- i
          done
        | 6 ->
          (* re-bind: another penalty on the same problem *)
          q := Qmatrix.make ~penalty:(penalty ()) (problem ())
        | 7 -> (
          (* an ECO edit: both surfaces are rebuilt on the edited
             problem at their penalties, so the cache is bound to
             another matrix and must drop every row *)
          let p = problem () in
          match Problem.apply_delta p (random_inplace_delta rng p.Problem.netlist removable) with
          | Error e -> Alcotest.fail (Delta.error_to_string e)
          | Ok dr ->
            if not dr.Problem.dr_dims_changed then begin
              let edited = dr.Problem.dr_problem in
              q := Qmatrix.make ~penalty:(Qmatrix.penalty !q) edited;
              strict := Qmatrix.make ~penalty:(Qmatrix.penalty !strict) edited
            end)
        | 8 ->
          (* STEP 3 brings the cache to [u] and computes every invalid
             row, with its minimum, as the passes do *)
          Repair.refresh cache (if Rng.int rng 2 = 0 then !q else !strict) u
            ~pool:Dompool.sequential
        | _ ->
          let passes = 1 + Rng.int rng 3 in
          let dc, dv = Repair.polish_tracked ~cache !strict u ~passes in
          let dc', dv' = Fresh.polish_tracked !strict r ~passes in
          expect (same_bits dc dc' && dv = dv'));
        expect (u = r);
        expect (rows_match_fresh cache)
      done;
      !ok)

(* Two unwired components in partition 0 of a 1x2 grid that holds one
   each: both rows are all zero, so each component sits at its row's
   minimum and ties with partition 1.  The first one is in an overfull
   partition and must move sideways; after it, the second is not and
   stays. *)
let test_overfull_tie_moves () =
  let b = Netlist.Builder.create () in
  for _ = 1 to 2 do
    ignore (Netlist.Builder.add_component b ~size:1.0 () : int)
  done;
  let nl = Netlist.Builder.build b in
  let problem = Problem.make nl (Grid.make ~rows:1 ~cols:2 ~capacity:1.0 ()) in
  let q = Qmatrix.make problem in
  let u = [| 0; 0 |] and r = [| 0; 0 |] in
  let cache = Repair.cache ~m:2 ~n:2 in
  Repair.refresh cache q u ~pool:Dompool.sequential;
  let loads = Fresh.loads q u and loads' = Fresh.loads q r in
  let scratch = Array.make 2 0.0 in
  let moved = Repair.coordinate_pass ~cache q u ~loads ~scratch in
  let moved' = Fresh.coordinate_pass q r ~loads:loads' ~delta:(ref 0.0) ~dviol:(ref 0) in
  check Alcotest.bool "moved" moved' moved;
  check Alcotest.(array int) "the reference's moves" r u;
  check Alcotest.(array int) "one component left the overfull partition" [| 1; 0 |] u

(* ------------------------------------------------------------------ *)
(* Exact surfaces: the row cache patches rows in place (DESIGN.md D25) *)

module Circuits = Qbpart_experiments.Circuits
module Synth = Qbpart_experiments.Synth

let exact_at ?(penalty = 50.0) problem = Qmatrix.exact (Qmatrix.make ~penalty problem)

(* Every instance the benchmark serves is integral: Manhattan B, wire
   counts, no P, at the adaptive rounds' penalties and the strict one *)
let test_exact_on_served_shapes () =
  let shapes =
    List.map
      (fun spec ->
        (spec.Circuits.name, Circuits.problem (Circuits.build ~reference_iterations:1 spec)))
      Circuits.table1
    @ [
        ( "synth1k",
          Circuits.problem (Synth.build (Synth.default ~name:"synth1k" ~n:1_000 ~seed:7)) );
      ]
  in
  List.iter
    (fun (name, problem) ->
      List.iter
        (fun penalty ->
          check Alcotest.bool (Printf.sprintf "%s at %g" name penalty) true
            (exact_at ~penalty problem))
        [ 50.0; 400.0; 3200.0; 25600.0; 1e12 ])
    shapes

(* Two components on a 1x2 topology, wired unless [~wired:false], with
   one budget 1 -> 0 and the other direction at +inf.  Component 0 is
   too big for partition 1; component 1 fits next to it. *)
let pair_problem ?(wired = true) ?(weight = 1.0) ?(b01 = 1.0) ?p ?alpha ?beta () =
  let b = Netlist.Builder.create () in
  let c0 = Netlist.Builder.add_component b ~size:1.0 () in
  let c1 = Netlist.Builder.add_component b ~size:0.4 () in
  if wired then Netlist.Builder.add_wire b c0 c1 ~weight ();
  let nl = Netlist.Builder.build b in
  let topo =
    Topology.make ~capacities:[| 2.0; 1.0 |]
      ~b:[| [| 0.0; b01 |]; [| 1.0; 0.0 |] |]
      ~d:[| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |]
      ()
  in
  let cons = Constraints.Builder.create ~n:2 in
  Constraints.Builder.add cons 1 0 0.0;
  Problem.make ?p ?alpha ?beta ~constraints:(Constraints.Builder.build cons) nl topo

let test_exact_predicate () =
  let yes what b = check Alcotest.bool what true b and no what b = check Alcotest.bool what false b in
  yes "integral pair" (exact_at (pair_problem ()));
  no "fractional wire weight" (exact_at (pair_problem ~weight:1.5 ()));
  no "fractional B" (exact_at (pair_problem ~b01:0.5 ()));
  no "fractional P" (exact_at (pair_problem ~p:[| [| 3.0; 0.25 |]; [| 1.0; 2.0 |] |] ()));
  no "-0.0 in P" (exact_at (pair_problem ~p:[| [| 3.0; -0.0 |]; [| 1.0; 2.0 |] |] ()));
  yes "+0.0 in P" (exact_at (pair_problem ~p:[| [| 3.0; 0.0 |]; [| 1.0; -2.0 |] |] ()));
  no "fractional penalty" (exact_at ~penalty:13.7 (pair_problem ()));
  no "P after alpha" (exact_at (pair_problem ~alpha:0.5 ~p:[| [| 3.0; 0.0 |]; [| 1.0; 2.0 |] |] ()));
  no "B after beta" (exact_at (pair_problem ~beta:0.5 ()));
  yes "B after an integral beta" (exact_at (pair_problem ~beta:2.0 ()));
  (* max|p| + sum|w| * max b + 2 * partners * penalty <= 2^52 *)
  let big p00 = pair_problem ~p:[| [| p00; 0.0 |]; [| 0.0; 0.0 |] |] () in
  yes "P at the bound" (exact_at (big (0x1p52 -. 101.0)));
  no "P just past the bound" (exact_at (big (0x1p52 -. 100.0)));
  yes "penalty at the bound" (exact_at ~penalty:(0x1p51 -. 1.0) (pair_problem ()));
  no "penalty just past the bound" (exact_at ~penalty:0x1p51 (pair_problem ()))

(* One cached pass over [pair_problem] from [| 0; 1 |] after a refresh:
   component 0 stays, so its row is valid when component 1 moves next
   to it and the move reaches the row. *)
let pass_after_refresh problem =
  let q = Qmatrix.make ~penalty:50.0 problem in
  let u = [| 0; 1 |] in
  let cache = Repair.cache ~m:2 ~n:2 in
  Repair.refresh cache q u ~pool:Dompool.sequential;
  let loads = Fresh.loads q u and scratch = Array.make 2 0.0 in
  ignore (Repair.coordinate_pass ~cache q u ~loads ~scratch : bool);
  check Alcotest.(array int) "component 1 moved next to 0" [| 0; 0 |] u;
  check Alcotest.bool "every valid row equals a fresh one" true (rows_match_fresh cache);
  (q, cache)

let test_patch_or_invalidate () =
  let big p00 = pair_problem ~p:[| [| p00; 0.0 |]; [| 0.0; 0.0 |] |] () in
  let q, cache = pass_after_refresh (big (0x1p52 -. 101.0)) in
  check Alcotest.bool "at the bound: exact" true (Qmatrix.exact q);
  check Alcotest.bool "the move patched row 0" true (Repair.valid_row cache 0 <> None);
  let q, cache = pass_after_refresh (big (0x1p52 -. 100.0)) in
  check Alcotest.bool "just past the bound: not exact" false (Qmatrix.exact q);
  check Alcotest.bool "the move invalidated row 0" true (Repair.valid_row cache 0 = None)

(* An unwired row the kernel starts from -0.0 stays -0.0 where no
   penalty lands; a patch that takes a penalty off such an entry leaves
   +0.0.  So -0.0 in P makes the surface inexact, and the row is
   recomputed instead. *)
let test_negative_zero_in_p () =
  let p = [| [| -0.0; 0.0 |]; [| -0.0; 0.0 |] |] in
  let q, cache = pass_after_refresh (pair_problem ~wired:false ~p ()) in
  check Alcotest.bool "not exact" false (Qmatrix.exact q);
  Repair.refresh cache q [| 0; 0 |] ~pool:Dompool.sequential;
  match Repair.valid_row cache 0 with
  | Some (row, _) ->
    check Alcotest.bool "row 0 keeps the kernel's -0.0" true (same_bits row.(0) (-0.0))
  | None -> fail "row 0 invalid after a refresh"

(* ------------------------------------------------------------------ *)
(* Burkard workspace pooling: reuse must not change trajectories.     *)

let test_burkard_workspace_reuse () =
  let problem = random_problem 5 in
  let config = { Burkard.Config.default with iterations = 8; seed = 3 } in
  let fresh = Burkard.solve ~config problem in
  let ws = Burkard.Workspace.create problem in
  let first = Burkard.solve ~config ~workspace:ws problem in
  let second = Burkard.solve ~config ~workspace:ws problem in
  check (Alcotest.float 0.0) "pooled equals fresh" fresh.Burkard.best_cost
    first.Burkard.best_cost;
  check Alcotest.bool "pooled best equals fresh best" true
    (fresh.Burkard.best = first.Burkard.best);
  check (Alcotest.float 0.0) "reused workspace equals first run" first.Burkard.best_cost
    second.Burkard.best_cost;
  check Alcotest.bool "reused best identical" true
    (first.Burkard.best = second.Burkard.best);
  check Alcotest.bool "histories identical" true
    (List.map (fun (it : Burkard.iteration) -> (it.Burkard.k, it.Burkard.penalized))
       first.Burkard.history
    = List.map (fun (it : Burkard.iteration) -> (it.Burkard.k, it.Burkard.penalized))
        second.Burkard.history);
  (* the next penalty round on the same workspace: its memo of omega
     entries, its row caches and its GAP instance carry over, and none
     of them may change a value *)
  let config = { config with Burkard.Config.penalty = 8.0 *. config.Burkard.Config.penalty } in
  let trace (r : Burkard.result) =
    List.map
      (fun (it : Burkard.iteration) ->
        (it.Burkard.k, Int64.bits_of_float it.Burkard.z, Int64.bits_of_float it.Burkard.penalized))
      r.Burkard.history
  in
  let fresh = Burkard.solve ~config ~initial:first.Burkard.best problem in
  let reused = Burkard.solve ~config ~initial:first.Burkard.best ~workspace:ws problem in
  check Alcotest.bool "next round on a reused workspace equals a fresh one" true
    (trace fresh = trace reused && fresh.Burkard.best = reused.Burkard.best)

let test_burkard_workspace_shape_checked () =
  let problem = random_problem 6 in
  let other = random_problem 7 in
  let ws = Burkard.Workspace.create problem in
  if Problem.n (Problem.normalize other) <> Problem.n (Problem.normalize problem) then
    match Burkard.solve ~workspace:ws other with
    | _ -> fail "mismatched workspace accepted"
    | exception Invalid_argument _ -> ()

let test_mthg_workspace_shape_checked () =
  let g =
    Gap.make
      ~cost:[| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |]
      ~weight:[| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |]
      ~capacity:[| 2.0; 2.0 |]
  in
  let ws = Mthg.workspace ~m:2 ~n:3 in
  match Mthg.solve ~ws g with
  | _ -> fail "mismatched MTHG workspace accepted"
  | exception Invalid_argument _ -> ()

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "incremental"
    [
      ( "eta maintenance",
        [
          qt prop_refresh_after_single_moves;
          qt prop_refresh_across_jumps_and_passes;
          qt prop_refresh_pool_invariant;
          qt prop_violations_matches_check;
          qt prop_omega_matches_per_entry_walk;
        ] );
      ( "eco deltas",
        [
          qt prop_remove_readd_roundtrip;
        ] );
      ( "row cache",
        [
          qt prop_kernel_matches_old;
          qt prop_row_cache_matches_fresh;
          Alcotest.test_case "tied row minimum leaves an overfull partition" `Quick
            test_overfull_tie_moves;
          Alcotest.test_case "exact on the served shapes" `Quick test_exact_on_served_shapes;
          Alcotest.test_case "exact predicate" `Quick test_exact_predicate;
          Alcotest.test_case "a move patches on an exact surface, else invalidates" `Quick
            test_patch_or_invalidate;
          Alcotest.test_case "-0.0 in P is recomputed, not patched" `Quick
            test_negative_zero_in_p;

        ] );
      ( "flat gap",
        [
          qt prop_flat_mthg_matches_boxed_oracle;
          qt prop_burkard_shaped_mthg_matches_oracle;
          qt prop_cheapest_placement_matches_oracle;
          qt prop_mthg_memo_matches_fresh;
          qt prop_solve_relaxed_pooled_deterministic;
          Alcotest.test_case "mthg workspace shape checked" `Quick
            test_mthg_workspace_shape_checked;
          qt prop_shift_lists_match_oracle;
          qt prop_shift_crowded_matches_oracle;
          qt prop_nan_regrets_match_reference;
          qt prop_forked_mthg_matches_sequential;
        ] );
      ( "workspace pooling",
        [
          Alcotest.test_case "burkard workspace reuse deterministic" `Quick
            test_burkard_workspace_reuse;
          Alcotest.test_case "burkard workspace shape checked" `Quick
            test_burkard_workspace_shape_checked;
        ] );
    ]
