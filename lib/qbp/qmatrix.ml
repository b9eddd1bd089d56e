module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Dompool = Qbpart_pool.Dompool

type rule = Solver | Paper

type t = { problem : Problem.t; penalty : float; exact : bool }

let default_penalty = 50.0

let make ?(penalty = default_penalty) problem =
  if penalty <= 0.0 || Float.is_nan penalty then
    invalid_arg "Qmatrix.make: penalty must be positive";
  let problem = Problem.normalize problem in
  { problem; penalty; exact = Problem.exact_surface problem ~penalty }

let problem t = t.problem
let penalty t = t.penalty
let exact t = t.exact
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
   buffer.  Three things make it cheap without changing a float
   (DESIGN.md D23):
   - b(i, a(j')) for every i is row a(j') of B transposed, so both
     orientations add a contiguous row;
   - the wire loop over the m entries is unrolled 4-way; each entry
     still gets its wire terms in slot order;
   - a partner at position a adds the penalty to the partitions i with
     D(i, a) above the outgoing budget and those with D(a, i) above the
     incoming one.  Each set is a prefix of a delay order of the
     topology, so the kernel walks the prefixes instead of testing all
     m partitions twice.  Every entry gets the same additions in the
     same order: per partner slot the outgoing penalty, then the
     incoming one. *)
let candidate_costs_at t u ~j ~off out =
  let nl = t.problem.Problem.netlist in
  let topo = t.problem.Problem.topology in
  let cons = t.problem.Problem.constraints in
  let m = Problem.m t.problem in
  let bf = Topology.b_flat topo and bt = Topology.bt_flat topo in
  let pen = t.penalty in
  p_column t.problem ~m ~j ~off out;
  let xadj = Netlist.adj_offsets nl in
  let anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  let quads = m / 4 in
  for k = xadj.(j) to xadj.(j + 1) - 1 do
    let j' = anbr.(k) and w = awgt.(k) in
    let src = if j < j' then bt else bf in
    let row = u.(j') * m in
    for q = 0 to quads - 1 do
      let o = off + (4 * q) and s = row + (4 * q) in
      out.(o) <- out.(o) +. (w *. src.(s));
      out.(o + 1) <- out.(o + 1) +. (w *. src.(s + 1));
      out.(o + 2) <- out.(o + 2) +. (w *. src.(s + 2));
      out.(o + 3) <- out.(o + 3) +. (w *. src.(s + 3))
    done;
    for i = 4 * quads to m - 1 do
      out.(off + i) <- out.(off + i) +. (w *. src.(row + i))
    done
  done;
  let poff = Constraints.partner_offsets cons in
  let pids = Constraints.partner_ids cons in
  let pbout = Constraints.partner_budget_out cons in
  let pbin = Constraints.partner_budget_in cons in
  let to_a = Topology.d_col_order topo and from_a = Topology.d_row_order topo in
  let to_ids = to_a.Topology.ids and to_delays = to_a.Topology.delays in
  let from_ids = from_a.Topology.ids and from_delays = from_a.Topology.delays in
  for k = poff.(j) to poff.(j + 1) - 1 do
    let block = u.(pids.(k)) * m in
    let stop = block + m in
    (* one penalty per violated direction: both directed budgets of
       a pair can be broken simultaneously *)
    let budget_out = pbout.(k) in
    let p = ref block in
    while !p < stop && to_delays.(!p) > budget_out do
      let o = off + to_ids.(!p) in
      out.(o) <- out.(o) +. pen;
      incr p
    done;
    let budget_in = pbin.(k) in
    let p = ref block in
    while !p < stop && from_delays.(!p) > budget_in do
      let o = off + from_ids.(!p) in
      out.(o) <- out.(o) +. pen;
      incr p
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

let component_chunks pool ~n f =
  let workers = Dompool.size pool in
  if workers = 1 || n < parallel_eta_cutoff then f ~jlo:0 ~jhi:n
  else begin
    let chunks = min n (workers * 4) in
    Dompool.parallel_for pool ~chunks (fun c ->
        f ~jlo:(c * n / chunks) ~jhi:((c + 1) * n / chunks))
  end

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
  component_chunks pool ~n (eta_range ~rule t u eta)

let eta ?rule t u =
  let eta = Array.make (dim t) 0.0 in
  eta_into ?rule t u eta;
  eta

(* --- the bound vector omega, on demand --------------------------- *)

(* STEP 3's xi reads one omega entry per component, at its current
   partition, so only the entries the iterates visit are ever computed:
   each the first time xi reads it, kept until the memo is bound to
   another matrix or rule. *)
type omega_memo = {
  om_m : int;
  om_n : int;
  om_vals : float array;   (* m*n, entry (i, j) at j*m + i *)
  om_known : Bytes.t;      (* m*n: '\001' once the entry is computed *)
  mutable om_surface : t option;
  mutable om_rule : rule;
}

let omega_memo ~m ~n =
  if m < 1 || n < 0 then invalid_arg "Qmatrix.omega_memo: need m >= 1 and n >= 0";
  {
    om_m = m;
    om_n = n;
    om_vals = Array.make (m * n) 0.0;
    om_known = Bytes.make (m * n) '\000';
    om_surface = None;
    om_rule = Solver;
  }

(* omega(i, j) into [out.(j*m + i)]: p(i, j), each wire's weight times
   the largest b it could meet (row max when j < j' under the Solver
   rule, the column max otherwise), then per partner slot one penalty
   per direction some placement of the partner violates.  Some
   placement breaks a budget iff the largest delay in that direction
   does (D has no NaN), and that delay heads the partition's block of
   a delay order.  The terms are added in this order, the order that
   fixes each entry's sum. *)
let omega_at ~paper t ~j ~i out =
  let pr = t.problem in
  let nl = pr.Problem.netlist in
  let topo = pr.Problem.topology in
  let cons = pr.Problem.constraints in
  let m = Problem.m pr in
  let row_max = Topology.b_row_max topo and col_max = Topology.b_col_max topo in
  let acc = ref 0.0 in
  (match pr.Problem.p with None -> () | Some p -> acc := pr.Problem.alpha *. p.(i).(j));
  let xadj = Netlist.adj_offsets nl in
  let anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  for k = xadj.(j) to xadj.(j + 1) - 1 do
    let max_b = if (not paper) && j < anbr.(k) then row_max else col_max in
    acc := !acc +. (awgt.(k) *. max_b.(i))
  done;
  let max_d_from = (Topology.d_row_order topo).Topology.delays.(i * m) in
  let max_d_to = (Topology.d_col_order topo).Topology.delays.(i * m) in
  let poff = Constraints.partner_offsets cons in
  let pbout = Constraints.partner_budget_out cons in
  let pbin = Constraints.partner_budget_in cons in
  let pen = t.penalty in
  for k = poff.(j) to poff.(j + 1) - 1 do
    if (not paper) && max_d_from > pbout.(k) then acc := !acc +. pen;
    if max_d_to > pbin.(k) then acc := !acc +. pen
  done;
  out.((j * m) + i) <- !acc

let xi ~rule t memo u =
  let m = Problem.m t.problem and n = Problem.n t.problem in
  if memo.om_m <> m || memo.om_n <> n || Array.length u <> n then
    invalid_arg "Qmatrix.xi: memo or assignment shape does not match";
  (match memo.om_surface with
  | Some t' when t' == t && memo.om_rule = rule -> ()
  | _ ->
    Bytes.fill memo.om_known 0 (m * n) '\000';
    memo.om_surface <- Some t;
    memo.om_rule <- rule);
  let paper = match rule with Paper -> true | Solver -> false in
  let vals = memo.om_vals in
  let total = ref 0.0 in
  for j = 0 to n - 1 do
    let r = (j * m) + u.(j) in
    if Bytes.unsafe_get memo.om_known r = '\000' then begin
      omega_at ~paper t ~j ~i:u.(j) vals;
      Bytes.unsafe_set memo.om_known r '\001'
    end;
    total := !total +. vals.(r)
  done;
  !total
