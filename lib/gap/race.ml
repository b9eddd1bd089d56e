type solver = Mthg | Lagrangian | Exact

let solver_name = function
  | Mthg -> "mthg"
  | Lagrangian -> "lagrangian"
  | Exact -> "exact"

type config = {
  mthg_criteria : Mthg.criterion list;
  mthg_improve : Mthg.improver;
  lagrangian_iterations : int;
  exact_max_items : int;
  exact_max_cells : int;
  exact_node_limit : int;
}

let default =
  {
    mthg_criteria = [ Mthg.Cost ];
    mthg_improve = `Shift;
    lagrangian_iterations = 8;
    exact_max_items = 12;
    exact_max_cells = 96;
    exact_node_limit = 20_000;
  }

type workspace = {
  rs_m : int;
  rs_n : int;
  mthg : Mthg.workspace;
  lambda : float array;    (* m: multipliers under fit *)
  usage : float array;     (* m: relaxed knapsack usage per subgradient step *)
  residual : float array;  (* m: residual capacities of the greedy leg *)
  order : int array;       (* n: greedy placement order *)
  key : float array;       (* n: placement-order sort keys *)
  cand : int array;        (* n: the Lagrangian-greedy candidate *)
  best : int array;        (* n: the running winner *)
  min_cost : float array;  (* n: per-item cheapest cost, for the shift polish *)
  lists : Improve.lists;   (* the shift polish's candidate lists *)
}

let workspace ~m ~n =
  if m < 1 || n < 0 then invalid_arg "Race.workspace: need m >= 1 and n >= 0";
  {
    rs_m = m;
    rs_n = n;
    mthg = Mthg.workspace ~m ~n;
    lambda = Array.make m 0.0;
    usage = Array.make m 0.0;
    residual = Array.make m 0.0;
    order = Array.make n 0;
    key = Array.make n 0.0;
    cand = Array.make n (-1);
    best = Array.make n (-1);
    min_cost = Array.make n 0.0;
    lists = Improve.lists ~m ~n;
  }

let ensure_ws ws (g : Gap.t) =
  match ws with
  | None -> workspace ~m:g.Gap.m ~n:g.Gap.n
  | Some ws ->
    if ws.rs_m <> g.Gap.m || ws.rs_n <> g.Gap.n then
      invalid_arg
        (Printf.sprintf "Race: workspace is %dx%d but instance is %dx%d" ws.rs_m ws.rs_n
           g.Gap.m g.Gap.n);
    ws

(* Fit multipliers by projected subgradient (the same ascent as
   [Lagrangian.lower_bound], restated on the workspace buffers so the
   hot path allocates nothing), then construct a primal candidate:
   items big-first, each into the fitting knapsack with the cheapest
   {e adjusted} cost c_ij + lambda_i w_ij — the multipliers steer items
   away from knapsacks the relaxation says are oversubscribed, which
   is exactly where plain cheapest-first greedies overfill.  Items
   that fit nowhere overflow the roomiest knapsack, mirroring
   [Mthg.relaxed_fill_into]'s contract. *)
let lagrangian_into ~iterations (g : Gap.t) ws assignment =
  let { Gap.m; n; _ } = g in
  let cost = g.Gap.cost and weight = g.Gap.weight in
  let lambda = ws.lambda and usage = ws.usage and residual = ws.residual in
  let order = ws.order and key = ws.key in
  Array.fill lambda 0 m 0.0;
  let magnitude =
    let s = ref 0.0 in
    Array.iter (fun c -> s := !s +. Float.abs c) cost;
    Float.max 1.0 (!s /. float_of_int (max 1 (m * n)))
  in
  for k = 1 to iterations do
    Array.fill usage 0 m 0.0;
    for j = 0 to n - 1 do
      let base = j * m in
      let best_i = ref 0 and best_c = ref infinity in
      for i = 0 to m - 1 do
        let c = cost.(base + i) +. (lambda.(i) *. weight.(base + i)) in
        if c < !best_c then begin
          best_c := c;
          best_i := i
        end
      done;
      usage.(!best_i) <- usage.(!best_i) +. weight.(base + !best_i)
    done;
    let step = magnitude /. (5.0 +. float_of_int k) in
    for i = 0 to m - 1 do
      let gsub = usage.(i) -. g.Gap.capacity.(i) in
      lambda.(i) <-
        Float.max 0.0 (lambda.(i) +. (step *. gsub /. Float.max 1.0 g.Gap.capacity.(i)))
    done
  done;
  Array.blit g.Gap.capacity 0 residual 0 m;
  for j = 0 to n - 1 do
    order.(j) <- j;
    let base = j * m in
    let w = ref 0.0 in
    for i = 0 to m - 1 do
      w := Float.max !w weight.(base + i)
    done;
    key.(j) <- !w
  done;
  Array.sort (fun a b -> Float.compare key.(b) key.(a)) order;
  Array.iter
    (fun j ->
      let base = j * m in
      let best = ref (-1) and best_c = ref infinity in
      for i = 0 to m - 1 do
        if weight.(base + i) <= residual.(i) then begin
          let c = cost.(base + i) +. (lambda.(i) *. weight.(base + i)) in
          if c < !best_c then begin
            best_c := c;
            best := i
          end
        end
      done;
      let i =
        if !best >= 0 then !best
        else begin
          let roomiest = ref 0 in
          for i = 1 to m - 1 do
            if residual.(i) > residual.(!roomiest) then roomiest := i
          done;
          !roomiest
        end
      in
      assignment.(j) <- i;
      residual.(i) <- residual.(i) -. weight.(base + i))
    order;
  (* the greedy leaves [residual] consistent with [assignment], so a
     feasible candidate gets the cheap shift polish in place *)
  if Gap.feasible g assignment then begin
    Improve.min_cost_into g ws.min_cost;
    Improve.shift_in_place g assignment ~residual ~min_cost:ws.min_cost ~lists:ws.lists
  end

let exact_gated config (g : Gap.t) =
  if g.Gap.n > config.exact_max_items || g.Gap.m * g.Gap.n > config.exact_max_cells then None
  else
    match Exact.solve ~node_limit:config.exact_node_limit g with
    | result -> result
    | exception Failure _ -> None (* node budget exhausted: no candidate *)

(* Ranking: (feasibility class, badness, cost, leg order), lexicographic.
   Feasible candidates compare by cost alone; infeasible ones by
   capacity excess first — between two overflowing iterates the Burkard
   loop is better served by the one closer to the feasible set. *)
let better ~cand_feas ~cand_excess ~cand_cost ~best_feas ~best_excess ~best_cost =
  match (cand_feas, best_feas) with
  | true, false -> true
  | false, true -> false
  | true, true -> cand_cost < best_cost
  | false, false ->
    cand_excess < best_excess || (cand_excess = best_excess && cand_cost < best_cost)

let race ?(config = default) ?(pool = Qbpart_pool.Dompool.sequential) ?ws (g : Gap.t)
    ~emit =
  Gap.verify_domain g;
  let ws = ensure_ws ws g in
  let n = g.Gap.n in
  let have = ref false in
  let best_feas = ref false and best_excess = ref infinity and best_cost = ref infinity in
  let best_leg = ref Mthg in
  let offer leg a =
    let cost = Gap.cost_of g a in
    let feas = Gap.feasible g a in
    let excess = if feas then 0.0 else Gap.excess g a in
    emit leg a cost;
    if
      (not !have)
      || better ~cand_feas:feas ~cand_excess:excess ~cand_cost:cost ~best_feas:!best_feas
           ~best_excess:!best_excess ~best_cost:!best_cost
    then begin
      have := true;
      best_feas := feas;
      best_excess := excess;
      best_cost := cost;
      best_leg := leg;
      Array.blit a 0 ws.best 0 n
    end
  in
  (* The legs are independent solvers on disjoint scratch (MTHG on
     [ws.mthg], the Lagrangian on the multiplier/greedy buffers, the
     exact leg on its own allocations), so they run concurrently on
     the pool; ranking stays sequential below.  Leg order is the
     tie-break: an equal-cost later leg never evicts the incumbent
     (strict [better]), so the winner is deterministic whatever the
     pool size or leg completion order. *)
  let mthg_out = ref [||] in
  let exact_out = ref None in
  (* A borrowed instance carries a single-domain guard; the fan-out is
     the one sanctioned crossing (verified above on the borrower, legs
     read-only, borrower blocked in [run_list]), so the legs get the
     guard-released view. *)
  let gv = if Qbpart_pool.Dompool.size pool > 1 then Gap.fan_out g else g in
  Qbpart_pool.Dompool.run_list pool
    ((fun () ->
       mthg_out :=
         Mthg.solve_relaxed ~ws:ws.mthg ~criteria:config.mthg_criteria
           ~improve:config.mthg_improve gv)
    :: (fun () -> exact_out := exact_gated config gv)
    ::
    (if config.lagrangian_iterations > 0 then
       [ (fun () -> lagrangian_into ~iterations:config.lagrangian_iterations gv ws ws.cand) ]
     else []));
  offer Mthg !mthg_out;
  if config.lagrangian_iterations > 0 then offer Lagrangian ws.cand;
  (match !exact_out with
  | None -> ()
  | Some (a, _) -> offer Exact a);
  (!best_leg, ws.best)

let run ?config ?pool ?ws g =
  let all = ref [] in
  let _ =
    race ?config ?pool ?ws g ~emit:(fun leg a cost -> all := (leg, Array.copy a, cost) :: !all)
  in
  List.rev !all

let solve_relaxed ?config ?pool ?ws g = snd (race ?config ?pool ?ws g ~emit:(fun _ _ _ -> ()))
let winner ?config ?pool ?ws g = fst (race ?config ?pool ?ws g ~emit:(fun _ _ _ -> ()))
