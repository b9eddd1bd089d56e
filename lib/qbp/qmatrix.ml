module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Dompool = Qbpart_pool.Dompool

type rule = Solver | Paper

type t = { problem : Problem.t; penalty : float }

let default_penalty = 50.0

let make ?(penalty = default_penalty) problem =
  if penalty <= 0.0 || Float.is_nan penalty then
    invalid_arg "Qmatrix.make: penalty must be positive";
  { problem = Problem.normalize problem; penalty }

let problem t = t.problem
let penalty t = t.penalty
let dim t = Problem.m t.problem * Problem.n t.problem

(* A candidate pair ((i1,j1),(i2,j2)) with j1 <> j2 violates timing iff
   there is a budget from j1 to j2 smaller than the partition delay. *)
let violates t i1 j1 i2 j2 =
  Topology.d t.problem.Problem.topology i1 i2
  > Constraints.budget t.problem.Problem.constraints j1 j2

let entry t r1 r2 =
  let m = Problem.m t.problem in
  let i1 = r1 mod m and j1 = r1 / m in
  let i2 = r2 mod m and j2 = r2 / m in
  if j1 = j2 then if i1 = i2 then Problem.p_entry t.problem ~i:i1 ~j:j1 else 0.0
  else if violates t i1 j1 i2 j2 then t.penalty
  else
    Netlist.connection t.problem.Problem.netlist j1 j2
    *. Topology.b t.problem.Problem.topology i1 i2

let dense t =
  let d = dim t in
  if d > 4096 then
    invalid_arg
      (Printf.sprintf
         "Qmatrix.dense: MN = %d too large to materialize; use Qmatrix.value (sparse, \
          O(wires + constraints)) or the eta kernels instead"
         d);
  Array.init d (fun r1 -> Array.init d (fun r2 -> entry t r1 r2))

(* Sparse evaluation of x^T Q x over the selected coordinates.  The
   O(n^2) double loop over [entry] visits mostly-zero off-diagonal
   blocks; only three term families are ever non-zero, and each is
   enumerable directly: the selected diagonal entries, both directed
   wire terms per stored wire, and — with replacement-embedding
   semantics — one penalty per violated stored directed budget *minus*
   the wire term that entry replaced (zero when the pair is unwired).
   O(n + wires + constraints) instead of O(n^2). *)
let value t a =
  let nl = t.problem.Problem.netlist in
  let topo = t.problem.Problem.topology in
  let cons = t.problem.Problem.constraints in
  let n = Problem.n t.problem in
  let total = ref 0.0 in
  for j = 0 to n - 1 do
    total := !total +. Problem.p_entry t.problem ~i:a.(j) ~j
  done;
  Netlist.iter_wires nl (fun w ->
      let j1 = Qbpart_netlist.Wire.u w and j2 = Qbpart_netlist.Wire.v w in
      let x = Qbpart_netlist.Wire.weight w in
      let i1 = a.(j1) and i2 = a.(j2) in
      if not (violates t i1 j1 i2 j2) then total := !total +. (x *. Topology.b topo i1 i2);
      if not (violates t i2 j2 i1 j1) then total := !total +. (x *. Topology.b topo i2 i1));
  Constraints.iter cons (fun j1 j2 budget ->
      if Topology.d topo a.(j1) a.(j2) > budget then total := !total +. t.penalty);
  !total

(* --- solver access ------------------------------------------------- *)

(* Every per-wire × per-partition kernel below reads B and D from the
   topology's flat row-major arrays (b(i1, i2) at [i1 * m + i2]) and
   inlines [Problem.p_entry]: a float returned by a function of
   another module is boxed, once per element in these loops.  The
   order of each kernel's float operations is part of its contract —
   solver trajectories, checkpoints and certificates are pinned bit
   for bit (DESIGN.md D14). *)

(* [out.(off + i) <- p_entry ~i ~j] for every partition [i] *)
let p_column (pr : Problem.t) ~m ~j ~off out =
  match pr.Problem.p with
  | None -> Array.fill out off m 0.0
  | Some p ->
    let alpha = pr.Problem.alpha in
    for i = 0 to m - 1 do
      out.(off + i) <- alpha *. p.(i).(j)
    done

(* Orientation: wires are stored once with endpoints u < v, and the
   evaluator charges b(a(u), a(v)).  For candidate (i, j) the wire
   j--j' therefore contributes b(i, a(j')) when j < j' and
   b(a(j'), i) otherwise.  With a symmetric B this distinction
   disappears; keeping it makes eta consistent with the objective for
   asymmetric B matrices too. *)
(* The shared kernel behind [candidate_costs_into] and the Solver-rule
   eta: writes the length-M candidate row of component [j] at offset
   [off] of [out], so eta can be assembled in place without a bounce
   buffer. *)
let candidate_costs_at t u ~j ~off out =
  let nl = t.problem.Problem.netlist in
  let topo = t.problem.Problem.topology in
  let cons = t.problem.Problem.constraints in
  let m = Problem.m t.problem in
  let bf = Topology.b_flat topo and df = Topology.d_flat topo in
  let pen = t.penalty in
  p_column t.problem ~m ~j ~off out;
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

let candidate_costs_into t u ~j out = candidate_costs_at t u ~j ~off:0 out

let candidate_costs t u ~j =
  let out = Array.make (Problem.m t.problem) 0.0 in
  candidate_costs_into t u ~j out;
  out

(* --- incremental move evaluation ----------------------------------- *)

(* Exact change of the penalized objective when component [j] moves
   from u.(j) to [i], everything else fixed: O(deg(j) + partners(j))
   instead of the O(wires + constraints) full recompute.  Matches
   [Problem.penalized_objective] because each wire is charged once
   with the evaluator's orientation and each stored directed budget of
   [j] is charged once. *)
let delta t u ~j ~i =
  let from = u.(j) in
  if i = from then 0.0
  else begin
    let pr = t.problem in
    let nl = pr.Problem.netlist in
    let topo = pr.Problem.topology in
    let cons = pr.Problem.constraints in
    let m = Problem.m pr in
    let bf = Topology.b_flat topo and df = Topology.d_flat topo in
    let acc =
      ref
        (match pr.Problem.p with
        | None -> 0.0
        | Some p -> (pr.Problem.alpha *. p.(i).(j)) -. (pr.Problem.alpha *. p.(from).(j)))
    in
    let xadj = Netlist.adj_offsets nl in
    let anbr = Netlist.adj_targets nl in
    let awgt = Netlist.adj_weights nl in
    for k = xadj.(j) to xadj.(j + 1) - 1 do
      let j' = anbr.(k) and w = awgt.(k) in
      let at' = u.(j') in
      if j < j' then acc := !acc +. (w *. (bf.((i * m) + at') -. bf.((from * m) + at')))
      else acc := !acc +. (w *. (bf.((at' * m) + i) -. bf.((at' * m) + from)))
    done;
    let poff = Constraints.partner_offsets cons in
    let pids = Constraints.partner_ids cons in
    let pbout = Constraints.partner_budget_out cons in
    let pbin = Constraints.partner_budget_in cons in
    let pen = t.penalty in
    for k = poff.(j) to poff.(j + 1) - 1 do
      let at' = u.(pids.(k)) in
      let budget_out = pbout.(k) and budget_in = pbin.(k) in
      acc :=
        !acc
        +. (if df.((i * m) + at') > budget_out then pen else 0.0)
        -. (if df.((from * m) + at') > budget_out then pen else 0.0)
        +. (if df.((at' * m) + i) > budget_in then pen else 0.0)
        -. if df.((at' * m) + from) > budget_in then pen else 0.0
    done;
    !acc
  end

(* Change in the number of violated directed timing budgets when [j]
   moves to [i]; the integer companion of [delta]. *)
let violations_delta t u ~j ~i =
  let from = u.(j) in
  if i = from then 0
  else begin
    let m = Problem.m t.problem in
    let df = Topology.d_flat t.problem.Problem.topology in
    let cons = t.problem.Problem.constraints in
    let acc = ref 0 in
    let poff = Constraints.partner_offsets cons in
    let pids = Constraints.partner_ids cons in
    let pbout = Constraints.partner_budget_out cons in
    let pbin = Constraints.partner_budget_in cons in
    for k = poff.(j) to poff.(j + 1) - 1 do
      let at' = u.(pids.(k)) in
      let budget_out = pbout.(k) and budget_in = pbin.(k) in
      let v cond = if cond then 1 else 0 in
      acc :=
        !acc
        + v (df.((i * m) + at') > budget_out)
        - v (df.((from * m) + at') > budget_out)
        + v (df.((at' * m) + i) > budget_in)
        - v (df.((at' * m) + from) > budget_in)
    done;
    !acc
  end

(* Each stored directed budget j -> j' is the finite [pbout] of slot
   j' in row j (an unconstrained direction is +inf and never counts),
   so one walk of the outgoing sides counts every budget exactly once:
   the same number [Check.count] gets from the raw budget store. *)
let violations t u =
  let m = Problem.m t.problem and n = Problem.n t.problem in
  let df = Topology.d_flat t.problem.Problem.topology in
  let cons = t.problem.Problem.constraints in
  let poff = Constraints.partner_offsets cons in
  let pids = Constraints.partner_ids cons in
  let pbout = Constraints.partner_budget_out cons in
  let count = ref 0 in
  for j = 0 to n - 1 do
    let row = u.(j) * m in
    for k = poff.(j) to poff.(j + 1) - 1 do
      if df.(row + u.(pids.(k))) > pbout.(k) then incr count
    done
  done;
  !count

(* Literal STEP-3 column sums of the paper's Q-hat: violated entries
   are the penalty *instead of* the wire term (replacement semantics),
   only the incoming constraint direction is visible to a column, and
   the diagonal contributes only at the currently selected
   coordinate. *)
let eta_paper_range t u eta ~jlo ~jhi =
  let pr = t.problem in
  let nl = pr.Problem.netlist in
  let cons = pr.Problem.constraints in
  let m = Problem.m pr in
  let bf = Topology.b_flat pr.Problem.topology and df = Topology.d_flat pr.Problem.topology in
  let pen = t.penalty in
  Array.fill eta (m * jlo) (m * (jhi - jlo)) 0.0;
  let xadj = Netlist.adj_offsets nl in
  let anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  let poff = Constraints.partner_offsets cons in
  let pids = Constraints.partner_ids cons in
  let pbin = Constraints.partner_budget_in cons in
  for j = jlo to jhi - 1 do
    let base = j * m in
    (match pr.Problem.p with
    | None -> eta.(base + u.(j)) <- 0.0
    | Some p -> eta.(base + u.(j)) <- pr.Problem.alpha *. p.(u.(j)).(j));
    (* quadratic part: the row index is the partner's selected coordinate *)
    for k = xadj.(j) to xadj.(j + 1) - 1 do
      let row = u.(anbr.(k)) * m and w = awgt.(k) in
      for i = 0 to m - 1 do
        eta.(base + i) <- eta.(base + i) +. (w *. bf.(row + i))
      done
    done;
    (* timing part: a violated entry replaces the wire term *)
    for k = poff.(j) to poff.(j + 1) - 1 do
      let j' = pids.(k) in
      let row = u.(j') * m in
      let budget_in = pbin.(k) in
      let slot = Netlist.adj_slot nl j j' in
      let w = if slot < 0 then 0.0 else awgt.(slot) in
      for i = 0 to m - 1 do
        if df.(row + i) > budget_in then
          eta.(base + i) <- eta.(base + i) +. pen -. (w *. bf.(row + i))
      done
    done
  done

(* Below this many components the fan-out bookkeeping costs more than
   the recompute it splits; the cutoff changes scheduling only, never
   values (each component's block is written by exactly one chunk). *)
let parallel_eta_cutoff = 128

let eta_range ~rule t u eta ~jlo ~jhi =
  match rule with
  | Paper -> eta_paper_range t u eta ~jlo ~jhi
  | Solver ->
    let m = Problem.m t.problem in
    for j = jlo to jhi - 1 do
      candidate_costs_at t u ~j ~off:(j * m) eta
    done

(* Both rules write only component [j]'s own m-wide block for each [j]
   in the range, so chunking by component races nothing and the result
   is bit-identical whatever the pool size: every entry is still the
   same left-to-right float sum the sequential loop computes. *)
let eta_into ?(rule = Solver) ?(pool = Dompool.sequential) t u eta =
  let m = Problem.m t.problem and n = Problem.n t.problem in
  if Array.length eta <> m * n then invalid_arg "Qmatrix.eta_into: wrong length";
  let workers = Dompool.size pool in
  if workers = 1 || n < parallel_eta_cutoff then eta_range ~rule t u eta ~jlo:0 ~jhi:n
  else begin
    let chunks = min n (workers * 4) in
    Dompool.parallel_for pool ~chunks (fun c ->
        let jlo = c * n / chunks and jhi = (c + 1) * n / chunks in
        eta_range ~rule t u eta ~jlo ~jhi)
  end

let eta ?rule t u =
  let eta = Array.make (dim t) 0.0 in
  eta_into ?rule t u eta;
  eta

(* --- incremental eta maintenance ----------------------------------- *)

(* Every eta entry is a sum of terms that each depend on the position
   of exactly one other component (plus, for [Paper], a diagonal term
   depending on the component's own position).  Moving component [j]
   from [old_i] to [new_i] therefore touches only the m-wide blocks of
   [j]'s netlist and constraint partners — an O(deg(j)·m) patch — and
   the patches commute, so a batch of moves can be replayed in any
   order.  Patching accumulates float rounding that a from-scratch
   [eta_into] would not, so the state resyncs after [resync_every]
   moves (and [eta_sync] falls back to a full recompute when more than
   [patch_limit] components moved at once). *)
type eta_state = {
  es_q : t;
  es_rule : rule;
  es_eta : float array;
  es_u : int array; (* the positions [es_eta] currently reflects *)
  es_resync_every : int;
  es_patch_limit : int;
  es_pool : Dompool.t; (* fans resyncs and wide patches, values unchanged *)
  mutable es_since_resync : int;
}

let eta_buffer st = st.es_eta
let eta_positions st = st.es_u

let eta_state ?(rule = Solver) ?(resync_every = 256) ?patch_limit ?buf
    ?(pool = Dompool.sequential) t u =
  let m = Problem.m t.problem and n = Problem.n t.problem in
  if resync_every < 1 then invalid_arg "Qmatrix.eta_state: resync_every must be >= 1";
  let patch_limit =
    match patch_limit with
    | Some l -> if l < 0 then invalid_arg "Qmatrix.eta_state: negative patch_limit" else l
    | None -> max 1 (n / 2)
  in
  let eta =
    match buf with
    | None -> Array.make (m * n) 0.0
    | Some b ->
      if Array.length b <> m * n then invalid_arg "Qmatrix.eta_state: wrong buffer length";
      b
  in
  eta_into ~rule ~pool t u eta;
  {
    es_q = t;
    es_rule = rule;
    es_eta = eta;
    es_u = Array.copy u;
    es_resync_every = resync_every;
    es_patch_limit = patch_limit;
    es_pool = pool;
    es_since_resync = 0;
  }

let eta_resync st =
  eta_into ~rule:st.es_rule ~pool:st.es_pool st.es_q st.es_u st.es_eta;
  st.es_since_resync <- 0

(* The wire part of one move's patch, over adjacency slots [klo, khi)
   of [j]'s row.

   Solver rule: in a partner [j']'s candidate row, [j] contributes the
   wire term with the evaluator's orientation ([j' < j] means [j]'s
   position is b's second argument).  Paper rule: in a partner's
   column the wire term always uses [j]'s position as b's first
   argument. *)
let patch_wire_range st ~j ~old_i ~new_i ~klo ~khi =
  let q = st.es_q in
  let nl = q.problem.Problem.netlist in
  let m = Problem.m q.problem in
  let bf = Topology.b_flat q.problem.Problem.topology in
  let eta = st.es_eta in
  let anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  let old_row = old_i * m and new_row = new_i * m in
  for k = klo to khi - 1 do
    let j' = anbr.(k) and w = awgt.(k) in
    let base = j' * m in
    match st.es_rule with
    | Solver when j' < j ->
      for i = 0 to m - 1 do
        eta.(base + i) <-
          eta.(base + i) +. (w *. (bf.((i * m) + new_i) -. bf.((i * m) + old_i)))
      done
    | Solver | Paper ->
      for i = 0 to m - 1 do
        eta.(base + i) <- eta.(base + i) +. (w *. (bf.(new_row + i) -. bf.(old_row + i)))
      done
  done

(* One move's per-partner wire patches are independent: wires are
   merged at netlist construction (each pair stored once), so every
   partner block in [adj] is written by exactly one slot and the
   fan-out below races nothing — each chunk runs the same per-slot
   arithmetic the sequential loop would, so values are bit-identical.
   Only hub components clear the cutoff; the timing-partner loop that
   follows stays sequential (those lists are short by construction
   and may repeat netlist partners). *)
let parallel_patch_cutoff = 512

let patch_wires st ~j ~old_i ~new_i =
  let xadj = Netlist.adj_offsets st.es_q.problem.Problem.netlist in
  let lo = xadj.(j) and hi = xadj.(j + 1) in
  let deg = hi - lo in
  let pool = st.es_pool in
  if Dompool.size pool = 1 || deg < parallel_patch_cutoff then
    patch_wire_range st ~j ~old_i ~new_i ~klo:lo ~khi:hi
  else begin
    let chunks = min deg (Dompool.size pool * 4) in
    Dompool.parallel_for pool ~chunks (fun c ->
        patch_wire_range st ~j ~old_i ~new_i
          ~klo:(lo + (c * deg / chunks))
          ~khi:(lo + ((c + 1) * deg / chunks)))
  end

(* Solver-rule timing patch: one penalty per violated directed budget
   in each partner's candidate row.  Seen from [j'], the stored
   budgets swap direction: [j']'s outgoing budget towards [j] is
   [budget_in] of [j]'s own slot. *)
let patch_solver_timing st ~j ~old_i ~new_i =
  let q = st.es_q in
  let cons = q.problem.Problem.constraints in
  let m = Problem.m q.problem in
  let df = Topology.d_flat q.problem.Problem.topology in
  let eta = st.es_eta in
  let poff = Constraints.partner_offsets cons in
  let pids = Constraints.partner_ids cons in
  let pbout = Constraints.partner_budget_out cons in
  let pbin = Constraints.partner_budget_in cons in
  let pen = q.penalty in
  let old_row = old_i * m and new_row = new_i * m in
  for k = poff.(j) to poff.(j + 1) - 1 do
    let base = pids.(k) * m in
    let budget_out = pbout.(k) and budget_in = pbin.(k) in
    for i = 0 to m - 1 do
      let before =
        (if df.((i * m) + old_i) > budget_in then pen else 0.0)
        +. if df.(old_row + i) > budget_out then pen else 0.0
      in
      let after =
        (if df.((i * m) + new_i) > budget_in then pen else 0.0)
        +. if df.(new_row + i) > budget_out then pen else 0.0
      in
      if before <> after then eta.(base + i) <- eta.(base + i) +. after -. before
    done
  done

(* Paper-rule patch: [j]'s own diagonal entry rides with its position
   (applied before the wire patches), and in a partner's column the
   timing replacement (penalty instead of the wire term) is gated by
   the partner's incoming budget — which is [budget_out] of [j]'s
   slot (applied after them). *)
let patch_paper_diagonal st ~j ~old_i ~new_i =
  let pr = st.es_q.problem in
  let eta = st.es_eta in
  let base_j = j * Problem.m pr in
  match pr.Problem.p with
  | None ->
    eta.(base_j + old_i) <- eta.(base_j + old_i) -. 0.0;
    eta.(base_j + new_i) <- eta.(base_j + new_i) +. 0.0
  | Some p ->
    let alpha = pr.Problem.alpha in
    eta.(base_j + old_i) <- eta.(base_j + old_i) -. (alpha *. p.(old_i).(j));
    eta.(base_j + new_i) <- eta.(base_j + new_i) +. (alpha *. p.(new_i).(j))

let patch_paper_timing st ~j ~old_i ~new_i =
  let q = st.es_q in
  let pr = q.problem in
  let nl = pr.Problem.netlist in
  let cons = pr.Problem.constraints in
  let m = Problem.m pr in
  let bf = Topology.b_flat pr.Problem.topology and df = Topology.d_flat pr.Problem.topology in
  let eta = st.es_eta in
  let awgt = Netlist.adj_weights nl in
  let poff = Constraints.partner_offsets cons in
  let pids = Constraints.partner_ids cons in
  let pbout = Constraints.partner_budget_out cons in
  let pen = q.penalty in
  let old_row = old_i * m and new_row = new_i * m in
  for k = poff.(j) to poff.(j + 1) - 1 do
    let j' = pids.(k) in
    let base = j' * m in
    let budget_out = pbout.(k) in
    let slot = Netlist.adj_slot nl j j' in
    let w = if slot < 0 then 0.0 else awgt.(slot) in
    for i = 0 to m - 1 do
      if df.(old_row + i) > budget_out then
        eta.(base + i) <- eta.(base + i) -. (pen -. (w *. bf.(old_row + i)));
      if df.(new_row + i) > budget_out then
        eta.(base + i) <- eta.(base + i) +. (pen -. (w *. bf.(new_row + i)))
    done
  done

let eta_apply_move st ~j i =
  let old_i = st.es_u.(j) in
  if i <> old_i then begin
    (match st.es_rule with
    | Solver ->
      patch_wires st ~j ~old_i ~new_i:i;
      patch_solver_timing st ~j ~old_i ~new_i:i
    | Paper ->
      patch_paper_diagonal st ~j ~old_i ~new_i:i;
      patch_wires st ~j ~old_i ~new_i:i;
      patch_paper_timing st ~j ~old_i ~new_i:i);
    st.es_u.(j) <- i;
    st.es_since_resync <- st.es_since_resync + 1;
    if st.es_since_resync >= st.es_resync_every then eta_resync st
  end

let eta_sync st u =
  let n = Problem.n st.es_q.problem in
  if Array.length u <> n then invalid_arg "Qmatrix.eta_sync: wrong length";
  let moved = ref 0 in
  for j = 0 to n - 1 do
    if u.(j) <> st.es_u.(j) then incr moved
  done;
  if !moved > st.es_patch_limit then begin
    Array.blit u 0 st.es_u 0 n;
    eta_resync st
  end
  else if !moved > 0 then begin
    (* Replaying the moves one by one resyncs after every
       [resync_every]-th patch, and a resync rewrites every entry from
       the positions alone: all work before the last resync of the
       batch is overwritten.  So take the first [absorbed] moves by
       position only, resync once, and patch the rest — the state the
       move-by-move replay reaches, bit for bit, without its
       O(moved / resync_every) full recomputes. *)
    let total = st.es_since_resync + !moved in
    let absorbed =
      if total < st.es_resync_every then 0 else !moved - (total mod st.es_resync_every)
    in
    let j = ref 0 and taken = ref 0 in
    while !taken < absorbed do
      if u.(!j) <> st.es_u.(!j) then begin
        st.es_u.(!j) <- u.(!j);
        incr taken
      end;
      incr j
    done;
    if absorbed > 0 then eta_resync st;
    for j = !j to n - 1 do
      if u.(j) <> st.es_u.(j) then eta_apply_move st ~j u.(j)
    done
  end;
  !moved

(* --- ECO rebinding -------------------------------------------------- *)

let apply_delta t problem =
  if Problem.m problem <> Problem.m t.problem then
    invalid_arg "Qmatrix.apply_delta: partition count changed";
  { t with problem = Problem.normalize problem }

let eta_rebind st q ~touched =
  let m = Problem.m q.problem and n = Problem.n q.problem in
  if m <> Problem.m st.es_q.problem || n <> Problem.n st.es_q.problem then
    invalid_arg "Qmatrix.eta_rebind: dimension changed (rebuild the state instead)";
  let st' = { st with es_q = q } in
  (match st.es_rule with
  | Paper ->
    (* The paper rule's column sums are not row-local; refresh fully. *)
    eta_resync st'
  | Solver ->
    List.iter
      (fun j ->
        if j < 0 || j >= n then invalid_arg "Qmatrix.eta_rebind: touched id out of range";
        candidate_costs_at q st'.es_u ~j ~off:(j * m) st'.es_eta)
      touched);
  st'

let eta_drift st =
  let fresh = Array.make (Array.length st.es_eta) 0.0 in
  eta_into ~rule:st.es_rule ~pool:st.es_pool st.es_q st.es_u fresh;
  let drift = ref 0.0 in
  Array.iteri
    (fun r x -> drift := Float.max !drift (Float.abs (x -. st.es_eta.(r))))
    fresh;
  !drift

let omega ?(rule = Solver) t =
  let pr = t.problem in
  let nl = pr.Problem.netlist in
  let topo = pr.Problem.topology in
  let cons = pr.Problem.constraints in
  let m = Problem.m pr and n = Problem.n pr in
  let bf = Topology.b_flat topo and df = Topology.d_flat topo in
  let omega = Array.make (m * n) 0.0 in
  (* max_b_to.(i) = max_{i'} b(i', i), the column-wise max, needed for
     the orientations where the candidate partition is the second
     argument of b. *)
  let max_b_to = Array.make m 0.0 in
  for i' = 0 to m - 1 do
    for i = 0 to m - 1 do
      max_b_to.(i) <- Float.max max_b_to.(i) bf.((i' * m) + i)
    done
  done;
  let max_b_from = Array.init m (Topology.max_b_from topo) in
  (* Some placement of a partner breaks the budget in a direction iff
     the largest delay in that direction does: D has no NaN, so
     "exists i' with d > budget" is "max_i' d > budget". *)
  let max_d_from = Array.make m neg_infinity and max_d_to = Array.make m neg_infinity in
  for i = 0 to m - 1 do
    for i' = 0 to m - 1 do
      if df.((i * m) + i') > max_d_from.(i) then max_d_from.(i) <- df.((i * m) + i');
      if df.((i' * m) + i) > max_d_to.(i) then max_d_to.(i) <- df.((i' * m) + i)
    done
  done;
  let xadj = Netlist.adj_offsets nl in
  let anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  let poff = Constraints.partner_offsets cons in
  let pbout = Constraints.partner_budget_out cons in
  let pbin = Constraints.partner_budget_in cons in
  let pen = t.penalty in
  for j = 0 to n - 1 do
    let base = j * m in
    p_column pr ~m ~j ~off:base omega;
    for i = 0 to m - 1 do
      let acc = ref omega.(base + i) in
      for k = xadj.(j) to xadj.(j + 1) - 1 do
        let j' = anbr.(k) and w = awgt.(k) in
        match rule with
        | Solver when j < j' -> acc := !acc +. (w *. max_b_from.(i))
        | Solver | Paper -> acc := !acc +. (w *. max_b_to.(i))
      done;
      for k = poff.(j) to poff.(j + 1) - 1 do
        (* worst case: some placement of the partner violates each
           direction independently *)
        match rule with
        | Solver ->
          if max_d_from.(i) > pbout.(k) then acc := !acc +. pen;
          if max_d_to.(i) > pbin.(k) then acc := !acc +. pen
        | Paper -> if max_d_to.(i) > pbin.(k) then acc := !acc +. pen
      done;
      omega.(base + i) <- !acc
    done
  done;
  omega

let xi t ~omega u =
  let m = Problem.m t.problem in
  let total = ref 0.0 in
  for j = 0 to Array.length u - 1 do
    total := !total +. omega.(u.(j) + (j * m))
  done;
  !total

let eta_cost_matrix_into flat ~m ~n dst =
  if Array.length flat <> m * n then
    invalid_arg "Qmatrix.eta_cost_matrix_into: wrong length";
  if Array.length dst <> m then invalid_arg "Qmatrix.eta_cost_matrix_into: wrong rows";
  for i = 0 to m - 1 do
    let row = dst.(i) in
    if Array.length row <> n then
      invalid_arg "Qmatrix.eta_cost_matrix_into: wrong cols";
    for j = 0 to n - 1 do
      row.(j) <- flat.(i + (j * m))
    done
  done

let eta_cost_matrix flat ~m ~n =
  if Array.length flat <> m * n then invalid_arg "Qmatrix.eta_cost_matrix: wrong length";
  Array.init m (fun i -> Array.init n (fun j -> flat.(i + (j * m))))
