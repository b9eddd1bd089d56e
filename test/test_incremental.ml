(* Incremental eta maintenance (DESIGN.md D9) and the flat unboxed GAP
   kernels: patched eta vectors are checked against from-scratch
   recomputes over random move sequences (both rules, across resync and
   patch-limit boundaries), the flat pooled MTHG against an embedded
   boxed-matrix reference implementation, and workspace reuse against
   fresh-buffer solves. *)

open Qbpart_core
module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Gap = Qbpart_gap.Gap
module Mthg = Qbpart_gap.Mthg

let check = Alcotest.check
let fail = Alcotest.fail

(* Same instance family as test_portfolio: enough wires, both
   constraint directions, and a P matrix, so the patched blocks
   exercise every term of both eta rules. *)
let random_problem seed =
  let rng = Rng.create seed in
  let n = 8 + Rng.int rng 8 in
  let m = 4 in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires:(3 * n)) in
  let capacity = Netlist.total_size nl /. float_of_int m *. 1.5 in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity () in
  let cons = Constraints.create ~n in
  for _ = 1 to n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then Constraints.add cons j1 j2 (float_of_int (1 + Rng.int rng 2))
  done;
  let p = Some (Array.init m (fun _ -> Array.init n (fun _ -> Rng.float rng 5.0))) in
  Problem.make ?p ~constraints:cons nl topo

let max_abs_diff a b =
  let d = ref 0.0 in
  Array.iteri (fun r x -> d := Float.max !d (Float.abs (x -. b.(r)))) a;
  !d

(* ------------------------------------------------------------------ *)
(* eta_apply_move vs from-scratch eta_into, across resync boundaries. *)

let prop_eta_apply_move_matches_scratch =
  QCheck.Test.make
    ~name:"eta_apply_move tracks eta_into within 1e-9 (both rules, tiny resync)"
    ~count:25
    QCheck.(pair (int_range 0 100_000) (int_range 1 6))
    (fun (seed, resync_every) ->
      let problem = random_problem seed in
      let q = Qmatrix.make ~penalty:50.0 problem in
      let problem = Qmatrix.problem q in
      let n = Problem.n problem and m = Problem.m problem in
      let rng = Rng.create (seed + 1) in
      let u0 = Assignment.random rng ~n ~m in
      List.for_all
        (fun rule ->
          let st = Qmatrix.eta_state ~rule ~resync_every q u0 in
          let u = Assignment.copy u0 in
          let scratch = Array.make (m * n) nan in
          let ok = ref true in
          for _ = 1 to 40 do
            let j = Rng.int rng n and i = Rng.int rng m in
            Qmatrix.eta_apply_move st ~j i;
            u.(j) <- i;
            Qmatrix.eta_into ~rule q u scratch;
            if max_abs_diff (Qmatrix.eta_buffer st) scratch > 1e-9 then ok := false
          done;
          !ok && Qmatrix.eta_positions st = u)
        [ Qmatrix.Solver; Qmatrix.Paper ])

(* eta_sync: both the patch path (few moves) and the full-recompute
   fallback (jumps past patch_limit) must land on the scratch vector. *)
let prop_eta_sync_matches_scratch =
  QCheck.Test.make ~name:"eta_sync lands on eta_into for patch and fallback paths"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_problem seed in
      let q = Qmatrix.make ~penalty:50.0 problem in
      let problem = Qmatrix.problem q in
      let n = Problem.n problem and m = Problem.m problem in
      let rng = Rng.create (seed + 2) in
      let u0 = Assignment.random rng ~n ~m in
      List.for_all
        (fun rule ->
          let st =
            Qmatrix.eta_state ~rule ~resync_every:7 ~patch_limit:(max 1 (n / 3)) q u0
          in
          let target = Assignment.copy u0 in
          let scratch = Array.make (m * n) nan in
          let ok = ref true in
          for _ = 1 to 12 do
            (* 0 .. n components move: sometimes nothing, sometimes the
               whole placement (forcing the fallback) *)
            let moves = Rng.int rng (n + 1) in
            for _ = 1 to moves do
              target.(Rng.int rng n) <- Rng.int rng m
            done;
            ignore (Qmatrix.eta_sync st target);
            Qmatrix.eta_into ~rule q target scratch;
            if max_abs_diff (Qmatrix.eta_buffer st) scratch > 1e-9 then ok := false;
            if Qmatrix.eta_positions st <> target then ok := false
          done;
          !ok)
        [ Qmatrix.Solver; Qmatrix.Paper ])

(* eta_sync takes a batch that crosses several drift resyncs with one
   recompute; the vector must still be the move-by-move replay's, bit
   for bit (not merely within tolerance). *)
let prop_eta_sync_equals_replay =
  QCheck.Test.make ~name:"eta_sync is bit-identical to the move-by-move replay"
    ~count:25
    QCheck.(pair (int_range 0 100_000) (int_range 1 9))
    (fun (seed, resync_every) ->
      let problem = random_problem seed in
      let q = Qmatrix.make ~penalty:50.0 problem in
      let problem = Qmatrix.problem q in
      let n = Problem.n problem and m = Problem.m problem in
      let rng = Rng.create (seed + 3) in
      let u0 = Assignment.random rng ~n ~m in
      List.for_all
        (fun rule ->
          let synced = Qmatrix.eta_state ~rule ~resync_every ~patch_limit:n q u0 in
          let replayed = Qmatrix.eta_state ~rule ~resync_every ~patch_limit:n q u0 in
          let target = Assignment.copy u0 in
          let ok = ref true in
          for _ = 1 to 10 do
            for _ = 1 to Rng.int rng (n + 1) do
              target.(Rng.int rng n) <- Rng.int rng m
            done;
            ignore (Qmatrix.eta_sync synced target);
            for j = 0 to n - 1 do
              if target.(j) <> (Qmatrix.eta_positions replayed).(j) then
                Qmatrix.eta_apply_move replayed ~j target.(j)
            done;
            let a = Qmatrix.eta_buffer synced and b = Qmatrix.eta_buffer replayed in
            Array.iteri
              (fun r x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(r) then ok := false)
              a
          done;
          !ok)
        [ Qmatrix.Solver; Qmatrix.Paper ])

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
(* ECO deltas: apply_delta-patched Q/eta vs a from-scratch rebuild.   *)

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

let prop_apply_delta_matches_scratch =
  QCheck.Test.make
    ~name:"apply_delta-patched eta equals scratch rebuild on the edited netlist (<=1e-9)"
    ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let problem = random_problem seed in
      let q0 = Qmatrix.make ~penalty:50.0 problem in
      let problem = Qmatrix.problem q0 in
      let n = Problem.n problem and m = Problem.m problem in
      let rng = Rng.create (seed + 3) in
      let u = Assignment.random rng ~n ~m in
      List.for_all
        (fun rule ->
          let q = ref q0 in
          let st = ref (Qmatrix.eta_state ~rule !q u) in
          let removable =
            ref (Array.to_list (Netlist.wires problem.Problem.netlist))
          in
          let ok = ref true in
          for _ = 1 to 4 do
            let p = Qmatrix.problem !q in
            let delta = random_inplace_delta rng p.Problem.netlist removable in
            match Problem.apply_delta p delta with
            | Error e -> Alcotest.fail (Delta.error_to_string e)
            | Ok dr ->
              if dr.Problem.dr_dims_changed then ok := false
              else begin
                let q' = Qmatrix.apply_delta !q dr.Problem.dr_problem in
                let st' = Qmatrix.eta_rebind !st q' ~touched:dr.Problem.dr_touched in
                let scratch = Qmatrix.eta ~rule q' u in
                if max_abs_diff (Qmatrix.eta_buffer st') scratch > 1e-9 then ok := false;
                if Qmatrix.eta_drift st' > 1e-9 then ok := false;
                q := q';
                st := st'
              end
          done;
          !ok)
        [ Qmatrix.Solver; Qmatrix.Paper ])

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
      let cons = Constraints.create ~n in
      for _ = 1 to n do
        let j1 = Rng.int rng n and j2 = Rng.int rng n in
        if j1 <> j2 then Constraints.add cons j1 j2 (float_of_int (1 + Rng.int rng 2))
      done;
      let problem = Problem.make ~constraints:cons nl topo in
      let k = Rng.int rng n in
      let name = cname nl k in
      let size = Netlist.size nl k in
      let re_wires =
        Array.to_list (Netlist.adj nl k)
        |> List.map (fun (j, w) ->
               Delta.Add_wire { u = name; v = cname nl j; weight = w })
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
    if !stuck then None else Some assignment

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

  let improve ?(swap = true) ~cost ~weight ~capacity ~m ~n a =
    let residual = residual_of ~weight ~capacity ~m a in
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
        | Some a ->
          improve ?swap ~cost ~weight ~capacity ~m ~n a;
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
      let residual = residual_of ~weight ~capacity ~m a in
      if Array.for_all (fun r -> r >= 0.0) residual then
        improve ?swap ~cost ~weight ~capacity ~m ~n a;
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
        second.Burkard.history)

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
          qt prop_eta_apply_move_matches_scratch;
          qt prop_eta_sync_matches_scratch;
          qt prop_eta_sync_equals_replay;
          qt prop_violations_matches_check;
        ] );
      ( "eco deltas",
        [ qt prop_apply_delta_matches_scratch; qt prop_remove_readd_roundtrip ] );
      ( "flat gap",
        [
          qt prop_flat_mthg_matches_boxed_oracle;
          qt prop_burkard_shaped_mthg_matches_oracle;
          qt prop_solve_relaxed_pooled_deterministic;
          Alcotest.test_case "mthg workspace shape checked" `Quick
            test_mthg_workspace_shape_checked;
        ] );
      ( "workspace pooling",
        [
          Alcotest.test_case "burkard workspace reuse deterministic" `Quick
            test_burkard_workspace_reuse;
          Alcotest.test_case "burkard workspace shape checked" `Quick
            test_burkard_workspace_shape_checked;
        ] );
    ]
