module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Constraints = Qbpart_timing.Constraints
module Topology = Qbpart_topology.Topology
module Assignment = Qbpart_partition.Assignment
module Gap = Qbpart_gap.Gap
module Mthg = Qbpart_gap.Mthg
module Dompool = Qbpart_pool.Dompool

module Config = struct
  type t = {
    iterations : int;
    penalty : float;
    rule : Qmatrix.rule;
    gap_criteria : Mthg.criterion list;
    gap_improve : Mthg.improver;
    polish_passes : int;
    final_polish : int;
    repair_every : int;
    seed : int;
  }

  let default =
    {
      iterations = 100;
      penalty = Qmatrix.default_penalty;
      rule = Qmatrix.Solver;
      gap_criteria = [ Mthg.Cost; Mthg.Weight ];
      gap_improve = `Shift;
      polish_passes = 1;
      final_polish = 50;
      repair_every = 2;
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
   The row cache (which is eta) and h double as the STEP-4/6 GAP cost
   matrices: the flat item-major GAP layout (entry (i,j) at j*m + i)
   coincides with the eta index r = i + j·M, so the borrowed instances
   alias them with no reshape or refresh at all.  The GAP instance is
   borrowed once, here, on the domain that will solve: every round's
   STEP-4 and STEP-6 instances derive from it with [Gap.with_cost], so
   they share one weight order and one MTHG memo of the
   cost-independent constructions across all rounds.  The last six
   buffers remember the previous input and answer of three steps, for
   the reuse of a step whose input repeats; [solve] trusts them only
   after writing them itself. *)
module Workspace = struct
  type t = {
    ws_m : int;
    ws_n : int;
    h : float array;          (* m*n, STEP-5 accumulated direction *)
    gap : Gap.t;              (* cost = the row cache, w(i,j) = s_j *)
    omega : Qmatrix.omega_memo; (* the omega entries xi has read *)
    mthg : Mthg.workspace;
    u : int array;            (* n, the current iterate *)
    rows : Repair.cache;      (* candidate rows on the round's surface:
                                 the Solver-rule eta *)
    strict_rows : Repair.cache; (* ... and on the strict surface *)
    pool : Dompool.t;         (* intra-solve fan-out: MTHG legs, eta row refreshes *)
    step4_key : int array;    (* n: the iterate of the last STEP-4 solve *)
    step4_answer : int array; (* n: ... and its answer *)
    step4_copy : int array;   (* n: what a repeated STEP 4 returns *)
    step6_answer : int array; (* n: the STEP-6 answer last polished *)
    polished : int array;     (* n: ... and what the polish made of it *)
    probe_start : int array;  (* n: where the last probe started *)
  }

  let create ?(pool = Dompool.sequential) problem =
    let problem = Problem.normalize problem in
    let m = Problem.m problem and n = Problem.n problem in
    let sizes = Netlist.sizes problem.Problem.netlist in
    let rows = Repair.cache ~m ~n in
    {
      ws_m = m;
      ws_n = n;
      h = Array.make (m * n) 0.0;
      gap =
        Gap.borrow ~cost:(Repair.rows rows) ~weight:(Gap.uniform_weights ~sizes ~m)
          ~capacity:(Topology.capacities problem.Problem.topology) ~n;
      omega = Qmatrix.omega_memo ~m ~n;
      mthg = Mthg.workspace ~m ~n;
      u = Array.make n 0;
      rows;
      strict_rows = Repair.cache ~m ~n;
      pool;
      step4_key = Array.make n 0;
      step4_answer = Array.make n 0;
      step4_copy = Array.make n 0;
      step6_answer = Array.make n 0;
      polished = Array.make n 0;
      probe_start = Array.make n 0;
    }
end

let same_iterate a b =
  let n = Array.length a in
  let j = ref 0 in
  while !j < n && a.(!j) = b.(!j) do
    incr j
  done;
  !j = n

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
  (* STEP 3's eta.  Under the Solver rule it is the round's row cache:
     the same m·N surface the polish reads, so STEP 3 only recomputes
     the rows that the jump and the polish invalidated (DESIGN.md D17).
     The Paper rule's column sums are not candidate rows; that ablation
     recomputes them into a buffer of its own every iteration. *)
  let eta =
    match config.Config.rule with
    | Qmatrix.Solver -> Repair.rows ws.Workspace.rows
    | Qmatrix.Paper -> Array.make (m * n) 0.0
  in
  (* The GAP instances of STEP 4 and STEP 6 alias eta and h directly as
     their (flat, item-major) cost matrices and share the workspace's
     uniform weights w_ij = s_j, so an inner solve costs no setup at
     all, and MTHG's memo of the cost-independent constructions serves
     both steps of every round. *)
  let gap_eta =
    match config.Config.rule with
    | Qmatrix.Solver -> ws.Workspace.gap
    | Qmatrix.Paper -> Gap.with_cost ws.Workspace.gap eta
  in
  let gap_h = Gap.with_cost ws.Workspace.gap ws.Workspace.h in
  Array.fill ws.Workspace.h 0 (m * n) 0.0;
  let default_gap gap =
    Mthg.solve_relaxed ~ws:ws.Workspace.mthg ~pool:ws.Workspace.pool
      ~criteria:config.Config.gap_criteria ~improve:config.Config.gap_improve gap
  in
  let u = ws.Workspace.u in
  (* STEP 4's instance is eta, a pure function of (q, u) (DESIGN.md
     D17), and the GAP solver is a deterministic function of its
     instance: when the iterate repeats, so does the answer, and a copy
     of the previous one is returned.  The reuse sits inside [default],
     so a [gap_solver] hook still sees every call.  The key is written
     here first, so a solve never trusts another solve's (another q's)
     key (DESIGN.md D24). *)
  let step4_known = ref false in
  let default_step4 gap =
    if gap == gap_eta && !step4_known && same_iterate u ws.Workspace.step4_key then begin
      Array.blit ws.Workspace.step4_answer 0 ws.Workspace.step4_copy 0 n;
      ws.Workspace.step4_copy
    end
    else begin
      let a = default_gap gap in
      if gap == gap_eta then begin
        Array.blit u 0 ws.Workspace.step4_key 0 n;
        Array.blit a 0 ws.Workspace.step4_answer 0 n;
        step4_known := true
      end;
      a
    end
  in
  let solve_gap ~step ~k gap =
    let default = match step with Step4 -> default_step4 | Step6 -> default_gap in
    match gap_solver with None -> default gap | Some f -> f ~step ~k ~default gap
  in
  (match initial with
  | Some a ->
    if Array.length a <> n then
      invalid_arg
        (Printf.sprintf "Burkard.solve: initial assignment has length %d, expected %d"
           (Array.length a) n);
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
  (* one candidate-row cache per penalty surface: the polish, the
     probe and the tail reuse every row no move has touched since.
     (Wrapped once here, so no iteration allocates the option.) *)
  let rows = Some ws.Workspace.rows and strict_rows = Some ws.Workspace.strict_rows in
  let polish ~strict ~passes a =
    if strict then Repair.polish ?cache:strict_rows (strict_q ()) a ~passes
    else Repair.polish ?cache:rows q a ~passes
  in
  let to_feasible a ~rounds = Repair.to_feasible ?cache:strict_rows (strict_q ()) a ~rounds in
  let interrupted = ref false in
  let stop () =
    if not !interrupted then interrupted := should_stop ();
    !interrupted
  in
  (* The polish and the probe are deterministic too, and the row caches
     never change a value (D16): a STEP-6 answer equal to the previous
     one polishes to the same iterate, at the same (cost, violations),
     and a probe from where the previous one started finds a candidate
     [consider] has already seen, which changes nothing. *)
  let polished_known = ref None and probe_known = ref false in
  let k = ref 1 in
  while (not (stop ())) && !k <= config.Config.iterations do
    let k0 = !k in
    (* STEP 3: eta at the iterate *)
    (match config.Config.rule with
    | Qmatrix.Solver -> Repair.refresh ws.Workspace.rows q u ~pool:ws.Workspace.pool
    | Qmatrix.Paper -> Qmatrix.eta_into ~rule:Qmatrix.Paper ~pool:ws.Workspace.pool q u eta);
    (* xi reads the omega entries at the iterate, each computed once
       per call: the memo is bound to this call's [q] *)
    let xi = Qmatrix.xi ~rule:config.Config.rule q ws.Workspace.omega u in
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
         in O(deg), so STEP 7 below needs no recompute. *)
      let known =
        match !polished_known with
        | Some known when same_iterate u ws.Workspace.step6_answer ->
          Array.blit ws.Workspace.polished 0 u 0 n;
          known
        | _ ->
          Array.blit u 0 ws.Workspace.step6_answer 0 n;
          let c0, v0 = evaluate u in
          let dc, dv = Repair.polish_tracked ?cache:rows q u ~passes:config.Config.polish_passes in
          Array.blit u 0 ws.Workspace.polished 0 n;
          let known = (c0 +. dc, v0 + dv) in
          polished_known := Some known;
          known
      in
      (* Feasibility probe (our enhancement, DESIGN.md D6): coordinate
         descent under an effectively infinite penalty pulls the iterate
         toward the timing-feasible set without disturbing the Burkard
         trajectory itself. *)
      if
        config.Config.repair_every > 0
        && (k0 mod config.Config.repair_every = 0 || k0 = config.Config.iterations)
        && not (Constraints.empty problem.Problem.constraints)
        && not (!probe_known && same_iterate u ws.Workspace.probe_start)
      then begin
        Array.blit u 0 ws.Workspace.probe_start 0 n;
        probe_known := true;
        let probe = Assignment.copy u in
        ignore (to_feasible probe ~rounds:6 : bool);
        ignore (consider probe)
      end;
      (* STEP 7 *)
      let penalized, feasible = consider ~known u in
      let viol = snd known in
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
    polish ~strict:false ~passes:config.Config.final_polish final;
    ignore (consider final);
    (* also try to push the penalized champion all the way to
       feasibility — repair moves may cost a little objective but can
       mint a better feasible solution than any iterate produced *)
    if not (Constraints.empty problem.Problem.constraints) then begin
      let repaired = Assignment.copy best in
      if to_feasible repaired ~rounds:10 then ignore (consider repaired)
    end;
    (* Polish the feasible champion under an effectively infinite
       penalty: improving moves can then never introduce a timing
       violation, so feasibility is preserved by construction. *)
    match !best_feasible_cost with
    | None -> ()
    | Some _ ->
      let final = Assignment.copy best_feasible_buf in
      polish ~strict:true ~passes:config.Config.final_polish final;
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
