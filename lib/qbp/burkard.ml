module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Constraints = Qbpart_timing.Constraints
module Topology = Qbpart_topology.Topology
module Assignment = Qbpart_partition.Assignment
module Gap = Qbpart_gap.Gap
module Mthg = Qbpart_gap.Mthg
module Race = Qbpart_gap.Race
module Dompool = Qbpart_pool.Dompool

module Config = struct
  type t = {
    iterations : int;
    penalty : float;
    rule : Qmatrix.rule;
    gap_criteria : Mthg.criterion list;
    gap_improve : Mthg.improver;
    gap_race : Race.config option;
    polish_passes : int;
    final_polish : int;
    repair_every : int;
    adopt_repair : bool;
    strict_polish : bool;
    seed : int;
  }

  let default =
    {
      iterations = 100;
      penalty = Qmatrix.default_penalty;
      rule = Qmatrix.Solver;
      gap_criteria = [ Mthg.Cost; Mthg.Weight ];
      gap_improve = `Shift;
      gap_race = None;
      polish_passes = 1;
      final_polish = 50;
      repair_every = 2;
      adopt_repair = false;
      strict_polish = false;
      seed = 1;
    }

  let paper =
    { default with rule = Qmatrix.Paper; polish_passes = 0; final_polish = 0; repair_every = 0 }
end

type iteration = {
  k : int;
  z : float;
  penalized : float;
  objective : float;
  feasible : bool;
}

type result = {
  best : Assignment.t;
  best_cost : float;
  best_feasible : (Assignment.t * float) option;
  history : iteration list;
  interrupted : bool;
}

type gap_step = Step4 | Step6

type gap_solver =
  step:gap_step -> k:int -> default:(Gap.t -> int array) -> Gap.t -> int array

(* Per-start scratch pool: every buffer the hot loop touches, allocated
   once and reused across all Burkard solves of a portfolio start (the
   adaptive penalty rounds re-enter [solve] with the same workspace).
   The eta and h vectors double as the STEP-4/6 GAP cost matrices: the
   flat item-major GAP layout (entry (i,j) at j*m + i) coincides with
   the eta index r = i + j·M, so the borrowed instances alias them with
   no reshape or refresh at all. *)
module Workspace = struct
  type t = {
    ws_m : int;
    ws_n : int;
    eta : float array;        (* m*n, maintained by the eta_state *)
    h : float array;          (* m*n, STEP-5 accumulated direction *)
    weight : float array;     (* m*n, w(i,j) = s_j, iteration-invariant *)
    capacity : float array;   (* m *)
    mthg : Mthg.workspace;
    race : Race.workspace;    (* for [Config.gap_race] runs *)
    u : int array;            (* n, the current iterate *)
    pool : Dompool.t;         (* intra-solve fan-out: eta recomputes,
                                 hub patches, the GAP race legs *)
  }

  let create ?(pool = Dompool.sequential) problem =
    let problem = Problem.normalize problem in
    let m = Problem.m problem and n = Problem.n problem in
    let sizes = Netlist.sizes problem.Problem.netlist in
    {
      ws_m = m;
      ws_n = n;
      eta = Array.make (m * n) 0.0;
      h = Array.make (m * n) 0.0;
      weight = Gap.uniform_weights ~sizes ~m;
      capacity = Topology.capacities problem.Problem.topology;
      mthg = Mthg.workspace ~m ~n;
      race = Race.workspace ~m ~n;
      u = Array.make n 0;
      pool;
    }
end

let solve ?(config = Config.default) ?initial ?(should_stop = fun () -> false)
    ?(observe = fun _ -> ()) ?gap_solver ?workspace problem =
  let problem = Problem.normalize problem in
  let q = Qmatrix.make ~penalty:config.Config.penalty problem in
  let m = Problem.m problem and n = Problem.n problem in
  let ws =
    match workspace with
    | None -> Workspace.create problem
    | Some w ->
      if w.Workspace.ws_m <> m || w.Workspace.ws_n <> n then
        invalid_arg
          (Printf.sprintf "Burkard.solve: workspace is %dx%d but problem is %dx%d"
             w.Workspace.ws_m w.Workspace.ws_n m n);
      w
  in
  (* The GAP instances of STEP 4 and STEP 6 alias the eta and h vectors
     directly as their (flat, item-major) cost matrices and share the
     uniform weights w_ij = s_j, so an inner solve costs no setup at
     all. *)
  let gap_eta = Gap.borrow ~cost:ws.Workspace.eta ~weight:ws.Workspace.weight
      ~capacity:ws.Workspace.capacity ~n in
  let gap_h = Gap.borrow ~cost:ws.Workspace.h ~weight:ws.Workspace.weight
      ~capacity:ws.Workspace.capacity ~n in
  Array.fill ws.Workspace.h 0 (m * n) 0.0;
  let default_gap =
    match config.Config.gap_race with
    | None ->
      fun gap ->
        Mthg.solve_relaxed ~ws:ws.Workspace.mthg ~criteria:config.Config.gap_criteria
          ~improve:config.Config.gap_improve gap
    | Some race ->
      fun gap -> Race.solve_relaxed ~config:race ~pool:ws.Workspace.pool ~ws:ws.Workspace.race gap
  in
  let solve_gap ~step ~k gap =
    match gap_solver with
    | None -> default_gap gap
    | Some f -> f ~step ~k ~default:default_gap gap
  in
  let u = ws.Workspace.u in
  (match initial with
  | Some a ->
    Assignment.check ~m a;
    Array.blit a 0 u 0 n
  | None ->
    let r = Assignment.random (Rng.create config.Config.seed) ~n ~m in
    Array.blit r 0 u 0 n);
  (* penalized cost and violation count of [a], computed from scratch;
     bit-identical to [Problem.penalized_objective] (which is defined
     as objective + penalty · violation count). *)
  let evaluate a =
    let v = Qmatrix.violations q a in
    (Problem.objective problem a +. (config.Config.penalty *. float_of_int v), v)
  in
  (* Champions live in owned buffers updated by blit, so the hot loop
     never allocates for a losing candidate (and copies only on
     improvement). *)
  let best = Array.make n 0 in
  let best_cost = ref infinity in
  let best_feasible_buf = Array.make n 0 in
  let best_feasible_cost = ref None in
  (* STEP 7.  [known] carries an incrementally-maintained
     (penalized cost, violation count) for [a] when the caller has one
     (the delta-tracked polish path), avoiding the full recompute. *)
  let consider ?known a =
    let c, viol = match known with Some cv -> cv | None -> evaluate a in
    if c < !best_cost then begin
      best_cost := c;
      Array.blit a 0 best 0 n
    end;
    let feas = viol = 0 && Problem.capacity_feasible problem a in
    if feas then begin
      (* violation-free ⇒ penalized cost = plain objective.  The
         selection compares the (possibly delta-accumulated) [c], but
         the stored champion cost is re-evaluated from scratch:
         adoption is rare, and the reported objective must match an
         independent recomputation bit-for-bit (Certify's audit). *)
      match !best_feasible_cost with
      | Some obj' when obj' <= c -> ()
      | _ ->
        best_feasible_cost := Some (Problem.objective problem a);
        Array.blit a 0 best_feasible_buf 0 n
    end;
    (c, feas)
  in
  ignore (consider u);
  let omega = Qmatrix.omega ~rule:config.Config.rule q in
  (* STEP 3 runs incrementally: the state below owns ws.eta, and each
     iteration patches only the components that moved since the last
     sync (GAP jump + polish + repair adoption) instead of recomputing
     the full vector — with the built-in full-recompute fallback when
     most of the placement changed, and the periodic drift resync. *)
  let st =
    Qmatrix.eta_state ~rule:config.Config.rule ~buf:ws.Workspace.eta
      ~pool:ws.Workspace.pool q u
  in
  let eta = ws.Workspace.eta in
  let h = ws.Workspace.h in
  let history = ref [] in
  let strict_q =
    let memo = ref None in
    fun () ->
      match !memo with
      | Some s -> s
      | None ->
        let s = Qmatrix.make ~penalty:1e12 problem in
        memo := Some s;
        s
  in
  let polish ?(q = q) ~passes a = Repair.polish q a ~passes in
  let interrupted = ref false in
  let stop () =
    if not !interrupted then interrupted := should_stop ();
    !interrupted
  in
  let k = ref 1 in
  while (not (stop ())) && !k <= config.Config.iterations do
    let k0 = !k in
    (* STEP 3: patch eta for the components that moved since last sync *)
    ignore (Qmatrix.eta_sync st u);
    let xi = Qmatrix.xi q ~omega u in
    (* STEP 4: minimize the linearization over S (cost aliases eta) *)
    let u_z = solve_gap ~step:Step4 ~k:k0 gap_eta in
    let z = ref 0.0 in
    for j = 0 to n - 1 do
      z := !z +. eta.(u_z.(j) + (j * m))
    done;
    (* STEP 5: accumulate the direction *)
    let scale = Float.max 1.0 (Float.abs (!z -. xi)) in
    for r = 0 to (m * n) - 1 do
      h.(r) <- h.(r) +. (eta.(r) /. scale)
    done;
    (* STEP 6: next iterate from the accumulated direction (cost
       aliases h); the pooled GAP result is blitted into the stable
       iterate before the next inner solve reuses its buffer *)
    let u6 = solve_gap ~step:Step6 ~k:k0 gap_h in
    Array.blit u6 0 u 0 n;
    (* mid-step checkpoint: a deadline firing here abandons the
       in-flight iterate — the best-so-far from STEP 7 of previous
       iterations is what the caller gets *)
    if not (stop ()) then begin
      (* Polish with delta tracking: one full evaluation of the fresh
         GAP iterate, then every descent move updates (cost, violations)
         in O(deg), so STEP 7 below needs no recompute.  Strict polish
         descends a different (huge-penalty) surface whose deltas do not
         price the solver's objective, so that path re-evaluates. *)
      let known =
        ref
          (if config.Config.strict_polish then begin
             polish ~q:(strict_q ()) ~passes:config.Config.polish_passes u;
             evaluate u
           end
           else begin
             let c0, v0 = evaluate u in
             let dc, dv = Repair.polish_tracked q u ~passes:config.Config.polish_passes in
             (c0 +. dc, v0 + dv)
           end)
      in
      (* Feasibility probe (our enhancement, DESIGN.md D6): coordinate
         descent under an effectively infinite penalty pulls the iterate
         toward the timing-feasible set without disturbing the Burkard
         trajectory itself (unless [adopt_repair] makes the repaired
         point the next iterate). *)
      if
        config.Config.repair_every > 0
        && (k0 mod config.Config.repair_every = 0 || k0 = config.Config.iterations)
        && not (Constraints.empty problem.Problem.constraints)
      then begin
        let probe = Assignment.copy u in
        let reached = Repair.to_feasible (strict_q ()) probe ~rounds:6 in
        ignore (consider probe);
        if config.Config.adopt_repair && reached && Problem.capacity_feasible problem probe then begin
          Array.blit probe 0 u 0 n;
          known := evaluate u
        end
      end;
      (* STEP 7 *)
      let penalized, feasible = consider ~known:!known u in
      let viol = snd !known in
      let it =
        {
          k = k0;
          z = !z;
          penalized;
          objective = penalized -. (config.Config.penalty *. float_of_int viol);
          feasible;
        }
      in
      history := it :: !history;
      observe it;
      incr k
    end
  done;
  if config.Config.final_polish > 0 && not !interrupted then begin
    let final = Assignment.copy best in
    polish ~passes:config.Config.final_polish final;
    ignore (consider final);
    (* also try to push the penalized champion all the way to
       feasibility — repair moves may cost a little objective but can
       mint a better feasible solution than any iterate produced *)
    if not (Constraints.empty problem.Problem.constraints) then begin
      let repaired = Assignment.copy best in
      if Repair.to_feasible (strict_q ()) repaired ~rounds:10 then ignore (consider repaired)
    end;
    (* Polish the feasible champion under an effectively infinite
       penalty: improving moves can then never introduce a timing
       violation, so feasibility is preserved by construction. *)
    match !best_feasible_cost with
    | None -> ()
    | Some _ ->
      let final = Assignment.copy best_feasible_buf in
      polish ~q:(strict_q ()) ~passes:config.Config.final_polish final;
      ignore (consider final)
  end;
  {
    best;
    best_cost = !best_cost;
    best_feasible = Option.map (fun c -> (best_feasible_buf, c)) !best_feasible_cost;
    history = List.rev !history;
    interrupted = !interrupted;
  }

let initial_feasible ?(config = Config.default) ?should_stop problem =
  let problem = Problem.normalize problem in
  let zero_b =
    Problem.make ?p:problem.Problem.p ~constraints:problem.Problem.constraints
      problem.Problem.netlist
      (Topology.with_zero_b problem.Problem.topology)
  in
  let result = solve ~config ?should_stop zero_b in
  Option.map fst result.best_feasible
