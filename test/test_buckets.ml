(* Property tests pinning the gain-bucket kernels to the row-scan
   implementations: same selections, same tie-breaking, bit-identical
   solve results across M = 2, 4, 16 — at loose capacity, and at the
   Table III tightness where capacity rejects most candidates. *)

open Qbpart_baselines
module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Initial = Qbpart_partition.Initial
module Validate = Qbpart_partition.Validate
module Wire = Qbpart_netlist.Wire

let check = Alcotest.check

(* rows × cols grids for M = 2, 4, 16 *)
let shape_of_seed seed =
  match seed mod 3 with 0 -> (1, 2) | 1 -> (2, 2) | _ -> (4, 4)

let random_setup ?(shape = shape_of_seed) seed ~n ~wires ~slack =
  let rng = Rng.create seed in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires) in
  let rows, cols = shape seed in
  let m = rows * cols in
  let topo =
    Grid.make ~rows ~cols ~capacity:(Netlist.total_size nl /. float_of_int m *. slack) ()
  in
  (rng, nl, topo)

let feasible_start rng nl topo =
  match Initial.greedy_feasible ~attempts:200 rng nl topo () with
  | Some a -> Some a
  | None -> None

let planted_constraints nl topo reference ~slack =
  let cons = Constraints.Builder.create ~n:(Array.length reference) in
  Array.iter
    (fun w ->
      let u = Qbpart_netlist.Wire.u w and v = Qbpart_netlist.Wire.v w in
      Constraints.Builder.add_sym cons u v
        (Topology.d topo reference.(u) reference.(v) +. slack))
    (Netlist.wires nl);
  Constraints.Builder.build cons

(* ------------------------------------------------------------------ *)
(* Full-solve bit-identity: every observable field must match, not
   just the cost — identical move sequences imply identical pass
   counts, move counts and assignments. *)

let prop_gfm_bit_identical =
  QCheck.Test.make ~name:"GFM buckets == scan (assignment, cost, passes, moves)" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:30 ~wires:90 ~slack:1.4 in
      match feasible_start rng nl topo with
      | None -> true
      | Some initial ->
        let m = Topology.m topo in
        let p = Array.init m (fun _ -> Array.init 30 (fun _ -> Rng.float rng 3.0)) in
        let constraints =
          if seed mod 2 = 0 then Some (planted_constraints nl topo initial ~slack:1.0)
          else None
        in
        let solve selection =
          Gfm.solve
            ~config:{ Gfm.default_config with Gfm.selection }
            ~p ?constraints nl topo ~initial
        in
        let scan = solve Gfm.Scan and buckets = solve Gfm.Buckets in
        scan.Gfm.assignment = buckets.Gfm.assignment
        && scan.Gfm.cost = buckets.Gfm.cost
        && scan.Gfm.passes = buckets.Gfm.passes
        && scan.Gfm.moves = buckets.Gfm.moves)

(* half the cases at M = 16, where GKL's dummies outnumber the real
   components *)
let prop_gkl_bit_identical =
  QCheck.Test.make ~name:"GKL buckets == scan (assignment, cost, loops, swaps)" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let shape seed = if seed mod 2 = 0 then (4, 4) else shape_of_seed seed in
      let rng, nl, topo = random_setup ~shape seed ~n:18 ~wires:50 ~slack:1.4 in
      match feasible_start rng nl topo with
      | None -> true
      | Some initial ->
        let constraints =
          if seed mod 2 = 0 then Some (planted_constraints nl topo initial ~slack:1.0)
          else None
        in
        let solve selection =
          Gkl.solve
            ~config:{ Gkl.default_config with Gkl.selection }
            ?constraints nl topo ~initial
        in
        let scan = solve Gkl.Scan and buckets = solve Gkl.Buckets in
        scan.Gkl.assignment = buckets.Gkl.assignment
        && scan.Gkl.cost = buckets.Gkl.cost
        && scan.Gkl.outer_loops = buckets.Gkl.outer_loops
        && scan.Gkl.swaps = buckets.Gkl.swaps)

(* ------------------------------------------------------------------ *)
(* Selection-level identity after arbitrary move/lock interleavings,
   including the exact (delta, j, i) tie-breaking order. *)

let oracle_best_move ?(legal = fun ~j:_ ~i:_ -> true) gains topo buckets =
  let a = Gains.assignment gains in
  let n = Array.length a and m = Gains.m gains in
  let best = ref None in
  for j = 0 to n - 1 do
    if not (Buckets.is_locked buckets j) then
      for i = 0 to m - 1 do
        if i <> a.(j) then begin
          let d = Gains.move_delta gains ~j ~target:i in
          let beats =
            match !best with
            | None -> true
            | Some (bd, bj, bi) -> d < bd || (d = bd && (j < bj || (j = bj && i < bi)))
          in
          if beats && Gains.move_fits gains topo ~j ~target:i && legal ~j ~i then
            best := Some (d, j, i)
        end
      done
  done;
  Option.map (fun (d, j, i) -> (j, i, d)) !best

let oracle_best_swap ?(legal = fun ~j1:_ ~j2:_ -> true) gains topo buckets =
  let a = Gains.assignment gains in
  let n = Array.length a in
  let best = ref None in
  for j1 = 0 to n - 1 do
    if not (Buckets.is_locked buckets j1) then
      for j2 = j1 + 1 to n - 1 do
        if (not (Buckets.is_locked buckets j2)) && a.(j1) <> a.(j2) then begin
          let d = Gains.swap_delta gains ~j1 ~j2 in
          let beats =
            match !best with
            | None -> true
            | Some (bd, b1, b2) ->
              d < bd || (d = bd && (j1 < b1 || (j1 = b1 && j2 < b2)))
          in
          if beats && Gains.swap_fits gains topo ~j1 ~j2 && legal ~j1 ~j2 then
            best := Some (d, j1, j2)
        end
      done
  done;
  Option.map (fun (d, j1, j2) -> (j1, j2, d)) !best

let selection_testable =
  Alcotest.option (Alcotest.triple Alcotest.int Alcotest.int (Alcotest.float 0.0))

let prop_best_move_matches_oracle =
  QCheck.Test.make ~name:"best_move == lexicographic oracle under moves and locks" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:16 ~wires:40 ~slack:2.0 in
      let m = Topology.m topo in
      let a0 = Assignment.random rng ~n:16 ~m in
      let gains = Gains.create nl topo a0 in
      let buckets = Buckets.create ~nbuckets:16 nl topo gains in
      let legal ~j ~target = Gains.move_fits gains topo ~j ~target in
      let ok = ref true in
      for _ = 1 to 12 do
        (match (Buckets.best_move buckets ~legal, oracle_best_move gains topo buckets) with
        | Some (j, i, d), Some (j', i', d') ->
          if not (j = j' && i = i' && d = d') then ok := false
        | None, None -> ()
        | _ -> ok := false);
        (* random mutation: a move, sometimes a lock *)
        let j = Rng.int rng 16 in
        if Rng.int rng 4 = 0 then Buckets.lock buckets j
        else Buckets.apply_move buckets ~j ~target:(Rng.int rng m)
      done;
      !ok)

let prop_best_swap_matches_oracle =
  QCheck.Test.make ~name:"best_swap == lexicographic oracle under swaps and locks" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:14 ~wires:35 ~slack:2.0 in
      let m = Topology.m topo in
      let a0 = Assignment.random rng ~n:14 ~m in
      let gains = Gains.create nl topo a0 in
      let buckets = Buckets.create ~nbuckets:16 nl topo gains in
      let legal ~j1 ~j2 = Gains.swap_fits gains topo ~j1 ~j2 in
      let ok = ref true in
      for _ = 1 to 10 do
        (match (Buckets.best_swap buckets ~legal, oracle_best_swap gains topo buckets) with
        | Some (j1, j2, d), Some (j1', j2', d') ->
          if not (j1 = j1' && j2 = j2' && d = d') then ok := false
        | None, None -> ()
        | _ -> ok := false);
        let j1 = Rng.int rng 14 and j2 = Rng.int rng 14 in
        if Rng.int rng 4 = 0 then Buckets.lock buckets j1
        else if (Gains.assignment gains).(j1) <> (Gains.assignment gains).(j2) then
          Buckets.apply_swap buckets ~j1 ~j2
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Tie-breaking pinned on an all-ties instance: no wires, uniform
   sizes — every move delta is exactly 0.0, so selection order is
   decided purely by the (j, i) tie-break. *)

let test_tie_breaking_all_zero () =
  let b = Netlist.Builder.create () in
  for _ = 1 to 6 do
    ignore (Netlist.Builder.add_component b ~size:1.0 ())
  done;
  let nl = Netlist.Builder.build b in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity:4.0 () in
  let a0 = [| 0; 1; 2; 3; 0; 1 |] in
  let gains = Gains.create nl topo a0 in
  let buckets = Buckets.create nl topo gains in
  let legal ~j ~target = Gains.move_fits gains topo ~j ~target in
  check selection_testable "first cell in scan order wins all-zero ties"
    (Some (0, 1, 0.0))
    (Buckets.best_move buckets ~legal);
  Buckets.lock buckets 0;
  check selection_testable "next component after lock"
    (Some (1, 0, 0.0))
    (Buckets.best_move buckets ~legal);
  let legal_swap ~j1 ~j2 = Gains.swap_fits gains topo ~j1 ~j2 in
  check selection_testable "lowest pair wins all-zero swap ties"
    (Some (1, 2, 0.0))
    (Buckets.best_swap buckets ~legal:legal_swap)

(* Gains drifting outside the reset-time range must clamp into the end
   buckets without losing candidates: force it by resetting on a
   uniform instance, then distorting the gains with moves. *)
let prop_overflow_clamp_safe =
  QCheck.Test.make ~name:"selections stay exact after gains drift past the fitted range"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng, nl, topo = random_setup seed ~n:12 ~wires:60 ~slack:3.0 in
      let m = Topology.m topo in
      let a0 = Assignment.random rng ~n:12 ~m in
      let gains = Gains.create nl topo a0 in
      (* deliberately tiny bucket count: heavy quantization, heavy
         clamping — correctness must not depend on resolution *)
      let buckets = Buckets.create ~nbuckets:8 nl topo gains in
      let legal ~j ~target = Gains.move_fits gains topo ~j ~target in
      let ok = ref true in
      for _ = 1 to 20 do
        Buckets.apply_move buckets ~j:(Rng.int rng 12) ~target:(Rng.int rng m);
        match (Buckets.best_move buckets ~legal, oracle_best_move gains topo buckets) with
        | Some (j, i, d), Some (j', i', d') ->
          if not (j = j' && i = i' && d = d') then ok := false
        | None, None -> ()
        | _ -> ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Table III tightness: M = 16, capacity slack 1.02-1.10, n >= 60,
   planted timing budgets, GKL dummies on.  Here capacity binds on most
   candidate moves and swaps, which the slack 1.4-2.0 properties above
   rarely exercise, and timing rules out most of the rest. *)

(* Directed budgets planted around [reference]: each direction of every
   wire, and of n/2 random unwired pairs, gets D(ref u, ref v) plus its
   own slack of 0, 1 or 2 — asymmetric, and not only between wired
   components. *)
let planted_directed rng nl topo reference =
  let n = Array.length reference in
  let cons = Constraints.Builder.create ~n in
  let plant u v =
    Constraints.Builder.add cons u v
      (Topology.d topo reference.(u) reference.(v) +. float_of_int (Rng.int rng 3))
  in
  Array.iter
    (fun w ->
      plant (Wire.u w) (Wire.v w);
      plant (Wire.v w) (Wire.u w))
    (Netlist.wires nl);
  for _ = 1 to n / 2 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v && Netlist.connection nl u v = 0.0 then plant u v
  done;
  Constraints.Builder.build cons

(* A 16-partition instance whose planted reference fills every
   partition to the same load: components are dealt round-robin and
   each partition's last one tops its load up to a common target, so
   capacity total/16 * slack leaves (slack - 1) of spare everywhere.
   Even seeds use the 4x4 grid; odd seeds a skewed topology whose
   random delays are asymmetric with a non-zero diagonal, where a
   budget can be violated by a partner in the same partition. *)
let tight_setup seed ~n =
  let rng = Rng.create seed in
  let m = 16 in
  let slack = 1.02 +. (0.02 *. float_of_int (seed mod 5)) in
  let wired = Generator.generate rng (Generator.default_params ~n ~wires:(4 * n)) in
  let reference = Array.init n (fun j -> j mod m) in
  let sizes = Array.init n (fun _ -> 1.0 +. Rng.float rng 9.0) in
  let last = Array.make m 0 and load = Array.make m 0.0 in
  Array.iteri (fun j i -> last.(i) <- j) reference;
  Array.iteri (fun j i -> if j <> last.(i) then load.(i) <- load.(i) +. sizes.(j)) reference;
  let target = Array.fold_left Float.max 0.0 load +. 1.0 in
  Array.iteri (fun i j -> sizes.(j) <- target -. load.(i)) last;
  let b = Netlist.Builder.create () in
  Array.iter (fun size -> ignore (Netlist.Builder.add_component b ~size ())) sizes;
  Netlist.iter_wires wired (fun w ->
      Netlist.Builder.add_wire b (Wire.u w) (Wire.v w) ~weight:(Wire.weight w) ());
  let nl = Netlist.Builder.build b in
  let capacity = Netlist.total_size nl /. float_of_int m *. slack in
  let topo =
    if seed mod 2 = 0 then Grid.make ~rows:4 ~cols:4 ~capacity ()
    else
      let grid = Grid.make ~rows:4 ~cols:4 ~capacity () in
      Topology.make ~capacities:(Array.make m capacity) ~b:(Topology.b_matrix grid)
        ~d:
          (Array.init m (fun i ->
               Array.init m (fun i' ->
                   if i = i' then float_of_int (3 * Rng.int rng 2)
                   else float_of_int (1 + Rng.int rng 4))))
        ()
  in
  let cons = planted_directed rng nl topo reference in
  (rng, nl, topo, cons, reference)

(* the reference, scrambled by random swaps that keep it capacity- and
   timing-feasible *)
let scrambled_start rng nl topo cons reference =
  let a = Array.copy reference in
  let n = Array.length a in
  for _ = 1 to 4 * n do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    let p1 = a.(j1) and p2 = a.(j2) in
    if p1 <> p2 then begin
      a.(j1) <- p2;
      a.(j2) <- p1;
      if Validate.check ~constraints:cons nl topo a <> [] then begin
        a.(j1) <- p1;
        a.(j2) <- p2
      end
    end
  done;
  a

let prop_gfm_tight =
  QCheck.Test.make ~name:"GFM buckets == scan at Table III tightness" ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n = 60 + (seed mod 61) in
      let rng, nl, topo, cons, reference = tight_setup seed ~n in
      let initial = scrambled_start rng nl topo cons reference in
      let p = Array.init 16 (fun _ -> Array.init n (fun _ -> Rng.float rng 3.0)) in
      let solve selection =
        Gfm.solve
          ~config:{ Gfm.default_config with Gfm.selection }
          ~p ~constraints:cons nl topo ~initial
      in
      let scan = solve Gfm.Scan and buckets = solve Gfm.Buckets in
      scan.Gfm.assignment = buckets.Gfm.assignment
      && scan.Gfm.cost = buckets.Gfm.cost
      && scan.Gfm.passes = buckets.Gfm.passes
      && scan.Gfm.moves = buckets.Gfm.moves)

let prop_gkl_tight =
  QCheck.Test.make ~name:"GKL buckets == scan at Table III tightness (dummies on)" ~count:6
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let n = 60 + (seed mod 21) in
      let rng, nl, topo, cons, reference = tight_setup seed ~n in
      let initial = scrambled_start rng nl topo cons reference in
      let solve selection =
        Gkl.solve
          ~config:{ Gkl.default_config with Gkl.selection }
          ~constraints:cons nl topo ~initial
      in
      let scan = solve Gkl.Scan and buckets = solve Gkl.Buckets in
      Gkl.default_config.Gkl.dummies > 0
      && scan.Gkl.assignment = buckets.Gkl.assignment
      && scan.Gkl.cost = buckets.Gkl.cost
      && scan.Gkl.outer_loops = buckets.Gkl.outer_loops
      && scan.Gkl.swaps = buckets.Gkl.swaps)

(* Timing legality recomputed from the raw budget store, independently
   of the partner CSR: no budget touching a moved component may be
   violated once [a'] holds the new places.  Dummies (ids >= real_n)
   carry no budgets. *)
let budgets_hold cons topo a' ~moved =
  Constraints.fold cons ~init:true ~f:(fun ok x y budget ->
      ok && ((not (moved x || moved y)) || Topology.d topo a'.(x) a'.(y) <= budget))

let swap_timing_oracle cons topo a ~real_n ~j1 ~j2 =
  let a' = Array.sub a 0 real_n in
  if j1 < real_n then a'.(j1) <- a.(j2);
  if j2 < real_n then a'.(j2) <- a.(j1);
  budgets_hold cons topo a' ~moved:(fun x -> x = j1 || x = j2)

let move_timing_oracle cons topo a ~real_n ~j ~i =
  j >= real_n
  ||
  let a' = Array.sub a 0 real_n in
  a'.(j) <- i;
  budgets_hold cons topo a' ~moved:(fun x -> x = j)

(* Selections of a timing-aware bucket structure (created with the
   budgets, as GFM and GKL create it) over a dummy-padded tight
   instance whose placement drifts by unconstrained random swaps and
   locks, so planted budgets — including those between the two ends of
   a candidate swap — are often violated.  The structure's own timing
   legality (per-cell violation counts maintained move by move, then
   Check.placement_ok with the partner moved into the other end's old
   place) must agree with the oracle on the raw budget store: for moves, for every
   swap, and for swaps restricted by [legal] to pairs whose two ends
   are timing partners, where reading the partner at its old place
   would accept swaps the oracle rejects. *)
let prop_timing_aware_selection_oracle =
  QCheck.Test.make
    ~name:"timing-aware best_move/best_swap == oracle at tight capacity, partners relocated"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let real_n = 60 + (seed mod 21) in
      let rng, nl, topo, cons, reference = tight_setup seed ~n:real_n in
      let nl =
        Netlist.append_isolated nl
          (Array.init 16 (fun i -> (Printf.sprintf "__pad_%d" i, 0.5 +. Rng.float rng 2.0)))
      in
      let n = Netlist.n nl in
      let start = Array.append (scrambled_start rng nl topo cons reference) (Array.init 16 Fun.id) in
      let gains = Gains.create nl topo start in
      let nbuckets = if seed mod 2 = 0 then 16 else 128 in
      let buckets = Buckets.create ~nbuckets ~constraints:cons nl topo gains in
      let a = Gains.assignment gains in
      let partners ~j1 ~j2 =
        j1 < real_n && j2 < real_n && (Constraints.mem cons j1 j2 || Constraints.mem cons j2 j1)
      in
      let swap_ok ~j1 ~j2 = swap_timing_oracle cons topo a ~real_n ~j1 ~j2 in
      let move_ok ~j ~i = move_timing_oracle cons topo a ~real_n ~j ~i in
      let same x y =
        match (x, y) with
        | Some (j1, j2, d), Some (j1', j2', d') -> j1 = j1' && j2 = j2' && d = d'
        | None, None -> true
        | _ -> false
      in
      let drift () =
        let j1 = Rng.int rng n and j2 = Rng.int rng n in
        if a.(j1) <> a.(j2) then Buckets.apply_swap buckets ~j1 ~j2
      in
      for _ = 1 to real_n / 2 do
        drift ()
      done;
      let ok = ref true in
      for _ = 1 to 10 do
        if
          not
            (same (Buckets.best_move buckets)
               (oracle_best_move ~legal:move_ok gains topo buckets))
        then ok := false;
        if
          not
            (same (Buckets.best_swap buckets)
               (oracle_best_swap ~legal:swap_ok gains topo buckets))
        then ok := false;
        if
          not
            (same
               (Buckets.best_swap ~legal:partners buckets)
               (oracle_best_swap gains topo buckets ~legal:(fun ~j1 ~j2 ->
                    partners ~j1 ~j2 && swap_ok ~j1 ~j2)))
        then ok := false;
        if Rng.int rng 4 = 0 then Buckets.lock buckets (Rng.int rng n)
        else if Rng.bool rng then drift ()
        else Buckets.apply_move buckets ~j:(Rng.int rng n) ~target:(Rng.int rng 16)
      done;
      !ok)

(* Selections on GKL-padded instances, driven as GKL drives them: M =
   16 at Table III tightness, planted budgets on half the seeds,
   fractional wire weights on another half and a P matrix on a third,
   padded by [Gkl.with_dummies] around the planted reference or a
   scrambled copy.  Each step compares both selections with the scan
   oracles, then mostly applies the selected swap as GKL does (lock
   both ends, swap), and now and then locks, drifts, rewinds a suffix
   of the applied swaps through [rewind_swap] and resets, or only
   resets.  Over 20 seeds a sixth to a quarter of the winners are
   dummy×dummy and as many real×dummy, and a timing count left stale by
   a rewind would show as a wrong selection after the reset. *)
let prop_padded_selection_oracle =
  QCheck.Test.make
    ~name:"best_swap/best_move == oracle on GKL-padded instances (swaps, locks, rewinds, resets)"
    ~count:20
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let real_n = 60 + (seed mod 21) in
      let rng, nl, topo, cons, reference = tight_setup seed ~n:real_n in
      let start =
        if seed mod 5 < 2 then reference else scrambled_start rng nl topo cons reference
      in
      let nl =
        if seed mod 2 = 0 then nl
        else Reweight.netlist nl (fun w -> Wire.weight w +. 0.25 +. Rng.float rng 1.0)
      in
      let constraints = if seed mod 4 < 2 then Some cons else None in
      let p =
        if seed mod 3 = 0 then
          Some (Array.init 16 (fun _ -> Array.init real_n (fun _ -> Rng.float rng 3.0)))
        else None
      in
      let nl, start, p =
        Gkl.with_dummies ~chunks:Gkl.default_config.Gkl.dummies ?p nl topo start
      in
      let n = Netlist.n nl in
      let gains = Gains.create ?p nl topo start in
      let buckets = Buckets.create ?constraints nl topo gains in
      let a = Gains.assignment gains in
      let swap_ok ~j1 ~j2 =
        match constraints with
        | None -> true
        | Some c -> swap_timing_oracle c topo a ~real_n ~j1 ~j2
      in
      let move_ok ~j ~i =
        match constraints with
        | None -> true
        | Some c -> move_timing_oracle c topo a ~real_n ~j ~i
      in
      let same x y =
        match (x, y) with
        | Some (j1, j2, d), Some (j1', j2', d') -> j1 = j1' && j2 = j2' && d = d'
        | None, None -> true
        | _ -> false
      in
      let trail = ref [] and ok = ref true in
      for _ = 1 to 80 do
        let selected = Buckets.best_swap buckets in
        if not (same selected (oracle_best_swap ~legal:swap_ok gains topo buckets)) then
          ok := false;
        if not (same (Buckets.best_move buckets) (oracle_best_move ~legal:move_ok gains topo buckets))
        then ok := false;
        match (Rng.int rng 20, selected) with
        | 0, _ -> Buckets.lock buckets (Rng.int rng n)
        | 1, _ ->
          let j1 = Rng.int rng n and j2 = Rng.int rng n in
          Buckets.apply_swap buckets ~j1 ~j2
        | 2, _ ->
          let rec rewind k = function
            | (j1, j2) :: rest when k > 0 ->
              Buckets.rewind_swap buckets ~j1 ~j2;
              rewind (k - 1) rest
            | rest -> rest
          in
          trail := rewind (Rng.int rng (List.length !trail + 1)) !trail;
          Buckets.reset buckets
        | 3, _ | _, None -> Buckets.reset buckets
        | _, Some (j1, j2, _) ->
          Buckets.lock buckets j1;
          Buckets.lock buckets j2;
          Buckets.apply_swap buckets ~j1 ~j2;
          trail := (j1, j2) :: !trail
      done;
      !ok)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "buckets"
    [
      ( "bit-identity",
        [ q prop_gfm_bit_identical; q prop_gkl_bit_identical ] );
      ( "selection",
        [
          q prop_best_move_matches_oracle;
          q prop_best_swap_matches_oracle;
          q prop_overflow_clamp_safe;
          Alcotest.test_case "tie-breaking, all-zero gains" `Quick test_tie_breaking_all_zero;
        ] );
      ( "tightness",
        [
          q prop_gfm_tight;
          q prop_gkl_tight;
          q prop_timing_aware_selection_oracle;
          q prop_padded_selection_oracle;
        ] );
    ]
