module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Check = Qbpart_timing.Check
module Wire = Qbpart_netlist.Wire

(* Cell c = j*m + i is "move component j to partition i"; it lives in
   row a.(j)*m + i (source, destination partition pair).  Buckets are
   coarse filters over quantized gains: selection always recompares
   exact deltas, so quantization only costs extra scanning, never
   correctness.

   Selection reads the gains table, sizes, loads, capacities and B
   through flat arrays shared with [Gains] and the topology, so no
   float crosses a function boundary (and gets boxed) per candidate.

   With timing budgets, each cell also counts the partners (at their
   current places) its move would violate, and the sum of their ids.
   A cell is linked only while that count is 0 — or 1 with the lone
   violator sitting at the cell's destination, the one case where a
   swap with that violator could still be legal.  On Table III most
   cells are parked this way, so the selections never see them. *)
type t = {
  nl : Netlist.t;
  topo : Topology.t;
  gains : Gains.t;
  m : int;
  n : int;
  nbuckets : int;
  heads : int array;       (* m*m*nbuckets: first cell per bucket, -1 = empty *)
  next : int array;        (* n*m *)
  prev : int array;        (* n*m *)
  cell_bucket : int array; (* n*m: global bucket index, -1 = unlinked *)
  min_key : int array;     (* m*m: no linked cell of the row keys below this *)
  max_key : int array;     (* m*m: no linked cell of the row keys above this *)
  row_count : int array;   (* m*m: linked cells per row *)
  locked : bool array;     (* n *)
  mutable g0 : float;      (* gain of key 1's lower bound, fitted at reset *)
  mutable q : float;       (* bucket width, > 0 *)
  lbs : float array;       (* nbuckets: lower bound of each key, refitted at reset *)
  corr_lb : float;         (* lower bound on the direct-wire swap correction *)
  (* shared views *)
  a : int array;           (* Gains.assignment *)
  df : float array;        (* Gains.deltas: cell c's move delta *)
  sizes : float array;
  loads : float array;     (* Gains.loads *)
  cap : float array;       (* Topology.capacity_array *)
  bf : float array;        (* flat B *)
  beta : float;
  (* best_swap scratch *)
  pair_lo : int array;     (* the m(m-1)/2 partition pairs p1 < p2 *)
  pair_hi : int array;
  pair_key : float array;  (* per pair: the bound of its two lowest buckets *)
  order : int array;       (* pairs by ascending key, kept across calls *)
  nz : int array;          (* non-empty keys of the row being paired, compacted lazily *)
  sel_d : float array;     (* the incumbent: delta ... *)
  sel_j : int array;       (* ... and its (j1, j2) *)
  (* timing: empty arrays and ncons = 0 without constraints *)
  cons : Constraints.t option;
  ncons : int;             (* components [0, ncons) carry budgets *)
  dflat : float array;     (* flat D *)
  tbad : int array;        (* n*m: partners the cell's move violates *)
  tsum : int array;        (* n*m: the sum of their ids *)
}

let is_locked t j = t.locked.(j)

(* Key 0 is the underflow clamp (lower bound -inf, for gains that
   drift below the fitted range mid-pass); keys 1..nbuckets-1 cover
   [g0, g0 + (nbuckets-2)q), the top key open above.  [lbs] holds
   these lower bounds. *)
let[@inline] key_of t g =
  if g < t.g0 then 0
  else begin
    let k = int_of_float (Float.floor ((g -. t.g0) /. t.q)) in
    (* float rounding can push floor one interval too high; the bucket
       invariant g >= lb(key) is what selection's pruning relies on *)
    let k = if t.g0 +. (float_of_int k *. t.q) > g then k - 1 else k in
    let k = k + 1 in
    if k < 1 then 1 else if k > t.nbuckets - 1 then t.nbuckets - 1 else k
  end

let unlink t c =
  let gb = t.cell_bucket.(c) in
  if gb >= 0 then begin
    let nx = t.next.(c) and pv = t.prev.(c) in
    if pv >= 0 then t.next.(pv) <- nx else t.heads.(gb) <- nx;
    if nx >= 0 then t.prev.(nx) <- pv;
    t.cell_bucket.(c) <- -1;
    let row = gb / t.nbuckets in
    t.row_count.(row) <- t.row_count.(row) - 1
  end

let link t c ~row ~key =
  let gb = (row * t.nbuckets) + key in
  let head = t.heads.(gb) in
  t.prev.(c) <- -1;
  t.next.(c) <- head;
  if head >= 0 then t.prev.(head) <- c;
  t.heads.(gb) <- c;
  t.cell_bucket.(c) <- gb;
  t.row_count.(row) <- t.row_count.(row) + 1;
  if key < t.min_key.(row) then t.min_key.(row) <- key;
  if key > t.max_key.(row) then t.max_key.(row) <- key

(* A cell may be linked: its move is not ruled out by timing (see the
   header); capacity and the rest are checked at selection. *)
let[@inline] timing_live t c i =
  t.ncons = 0
  || t.tbad.(c) = 0
  || (t.tbad.(c) = 1 && t.a.(t.tsum.(c)) = i)

(* Bring j's cells in line with the current assignment, gains and
   timing counts: the m-1 live ones linked in their (row, key) bucket,
   the rest unlinked.  A cell already in its bucket stays put; locked
   components keep all cells out until reset. *)
let relink_component t j =
  let m = t.m and base = j * t.m in
  if t.locked.(j) then
    for i = 0 to m - 1 do
      unlink t (base + i)
    done
  else begin
    let from = t.a.(j) in
    let row_base = from * m in
    for i = 0 to m - 1 do
      let c = base + i in
      if i = from || not (timing_live t c i) then unlink t c
      else begin
        let key = key_of t t.df.(c) in
        if t.cell_bucket.(c) <> ((row_base + i) * t.nbuckets) + key then begin
          unlink t c;
          link t c ~row:(row_base + i) ~key
        end
      end
    done
  end

(* j's timing counts from scratch, against every partner's current
   place *)
let recount t j =
  match t.cons with
  | None -> ()
  | Some c ->
    let m = t.m and d = t.dflat and base = j * t.m in
    let poff = Constraints.partner_offsets c and pids = Constraints.partner_ids c in
    let pbout = Constraints.partner_budget_out c and pbin = Constraints.partner_budget_in c in
    Array.fill t.tbad base m 0;
    Array.fill t.tsum base m 0;
    for k = poff.(j) to poff.(j + 1) - 1 do
      let j' = pids.(k) in
      let at' = t.a.(j') in
      for i = 0 to m - 1 do
        if d.((i * m) + at') > pbout.(k) || d.((at' * m) + i) > pbin.(k) then begin
          t.tbad.(base + i) <- t.tbad.(base + i) + 1;
          t.tsum.(base + i) <- t.tsum.(base + i) + j'
        end
      done
    done

(* x moved from [from] to [target]: patch its partners' counts (x's
   row holds the budgets mirrored: D_C(x, j') out, D_C(j', x) in) and
   relink them *)
let shift_partners t x ~from ~target =
  match t.cons with
  | None -> ()
  | Some c ->
    let m = t.m and d = t.dflat in
    let poff = Constraints.partner_offsets c and pids = Constraints.partner_ids c in
    let pbout = Constraints.partner_budget_out c and pbin = Constraints.partner_budget_in c in
    for k = poff.(x) to poff.(x + 1) - 1 do
      let j' = pids.(k) and to_x = pbin.(k) and from_x = pbout.(k) in
      let base = j' * m in
      for i = 0 to m - 1 do
        let was = d.((i * m) + from) > to_x || d.((from * m) + i) > from_x in
        let now = d.((i * m) + target) > to_x || d.((target * m) + i) > from_x in
        if was <> now then begin
          let s = if now then 1 else -1 in
          t.tbad.(base + i) <- t.tbad.(base + i) + s;
          t.tsum.(base + i) <- t.tsum.(base + i) + (s * x)
        end
      done;
      relink_component t j'
    done

let lock t j =
  if not t.locked.(j) then begin
    t.locked.(j) <- true;
    let base = j * t.m in
    for i = 0 to t.m - 1 do
      unlink t (base + i)
    done
  end

let reset t =
  Array.fill t.locked 0 t.n false;
  Array.fill t.heads 0 (Array.length t.heads) (-1);
  Array.fill t.cell_bucket 0 (Array.length t.cell_bucket) (-1);
  Array.fill t.row_count 0 (Array.length t.row_count) 0;
  Array.fill t.min_key 0 (Array.length t.min_key) t.nbuckets;
  Array.fill t.max_key 0 (Array.length t.max_key) (-1);
  let a = t.a and df = t.df in
  let gmin = ref infinity and gmax = ref neg_infinity in
  for j = 0 to t.n - 1 do
    let from = a.(j) in
    for i = 0 to t.m - 1 do
      if i <> from then begin
        let g = df.((j * t.m) + i) in
        if g < !gmin then gmin := g;
        if g > !gmax then gmax := g
      end
    done
  done;
  if !gmin > !gmax then begin
    (* no movable cell (m = 1 or n = 0) *)
    t.g0 <- 0.0;
    t.q <- 1.0
  end
  else begin
    t.g0 <- !gmin;
    let span = !gmax -. !gmin in
    t.q <- (if span > 0.0 then span /. float_of_int (t.nbuckets - 2) else 1.0)
  end;
  t.lbs.(0) <- neg_infinity;
  for k = 1 to t.nbuckets - 1 do
    t.lbs.(k) <- t.g0 +. (float_of_int (k - 1) *. t.q)
  done;
  for j = 0 to t.ncons - 1 do
    recount t j
  done;
  for j = 0 to t.n - 1 do
    let from = a.(j) in
    let base = j * t.m and row_base = from * t.m in
    for i = 0 to t.m - 1 do
      let c = base + i in
      if i <> from && timing_live t c i then
        link t c ~row:(row_base + i) ~key:(key_of t df.(c))
    done
  done

(* The GKL swap delta is gA(j1) + gB(j2) + corr, where corr re-adds
   the direct wire between the endpoints.  For pruning we need a
   constant lower bound on corr: it is beta * w * (b(x,y) + b(y,x))
   for some wire weight w and partition pair (x,y), or 0 for unwired
   pairs, so the minimum over the four products of the weight and
   b-sum range endpoints (and 0) bounds every pair. *)
let corr_lower_bound nl topo gains =
  let m = Topology.m topo in
  if m < 2 || Netlist.wire_count nl = 0 then 0.0
  else begin
    let wmin = ref infinity and wmax = ref neg_infinity in
    Netlist.iter_wires nl (fun w ->
        let x = Wire.weight w in
        if x < !wmin then wmin := x;
        if x > !wmax then wmax := x);
    let smin = ref infinity and smax = ref neg_infinity in
    for x = 0 to m - 1 do
      for y = 0 to m - 1 do
        if x <> y then begin
          let s = Topology.b topo x y +. Topology.b topo y x in
          if s < !smin then smin := s;
          if s > !smax then smax := s
        end
      done
    done;
    let beta = Gains.beta gains in
    Float.min 0.0
      (Float.min
         (Float.min (beta *. !wmin *. !smin) (beta *. !wmin *. !smax))
         (Float.min (beta *. !wmax *. !smin) (beta *. !wmax *. !smax)))
  end

let create ?(nbuckets = 128) ?constraints nl topo gains =
  let nbuckets = max 8 nbuckets in
  let m = Gains.m gains in
  let n = Netlist.n nl in
  let npairs = m * (m - 1) / 2 in
  let pair_lo = Array.make npairs 0 and pair_hi = Array.make npairs 0 in
  let q = ref 0 in
  for p1 = 0 to m - 2 do
    for p2 = p1 + 1 to m - 1 do
      pair_lo.(!q) <- p1;
      pair_hi.(!q) <- p2;
      incr q
    done
  done;
  let t =
    {
      nl;
      topo;
      gains;
      m;
      n;
      nbuckets;
      heads = Array.make (m * m * nbuckets) (-1);
      next = Array.make (max 1 (n * m)) (-1);
      prev = Array.make (max 1 (n * m)) (-1);
      cell_bucket = Array.make (max 1 (n * m)) (-1);
      min_key = Array.make (m * m) nbuckets;
      max_key = Array.make (m * m) (-1);
      row_count = Array.make (m * m) 0;
      locked = Array.make (max 1 n) false;
      g0 = 0.0;
      q = 1.0;
      lbs = Array.make nbuckets neg_infinity;
      corr_lb = corr_lower_bound nl topo gains;
      a = Gains.assignment gains;
      df = Gains.deltas gains;
      sizes = Gains.sizes gains;
      loads = Gains.loads gains;
      cap = Topology.capacity_array topo;
      bf = Topology.b_flat topo;
      beta = Gains.beta gains;
      pair_lo;
      pair_hi;
      pair_key = Array.make npairs infinity;
      order = Array.init npairs Fun.id;
      nz = Array.make nbuckets 0;
      sel_d = [| infinity |];
      sel_j = [| -1; -1 |];
      cons = constraints;
      ncons = (match constraints with Some c -> min n (Constraints.n c) | None -> 0);
      dflat = Topology.d_flat topo;
      tbad = (match constraints with Some _ -> Array.make (n * m) 0 | None -> [||]);
      tsum = (match constraints with Some _ -> Array.make (n * m) 0 | None -> [||]);
    }
  in
  reset t;
  t

let apply_move t ~j ~target =
  let from = t.a.(j) in
  Gains.apply_move t.gains ~j ~target;
  if j < t.ncons && target <> from then shift_partners t j ~from ~target;
  relink_component t j;
  let xadj = Netlist.adj_offsets t.nl in
  let anbr = Netlist.adj_targets t.nl in
  for k = xadj.(j) to xadj.(j + 1) - 1 do
    relink_component t anbr.(k)
  done

let apply_swap t ~j1 ~j2 =
  let p1 = t.a.(j1) and p2 = t.a.(j2) in
  if p1 <> p2 then begin
    apply_move t ~j:j1 ~target:p2;
    apply_move t ~j:j2 ~target:p1
  end

(* Advance a row's min-key pointer past emptied buckets, and retreat
   its max-key pointer below them (lazy: unlink never moves them back,
   link does). *)
let advance t row =
  let base = row * t.nbuckets in
  let k = ref t.min_key.(row) in
  while !k < t.nbuckets && t.heads.(base + !k) < 0 do
    incr k
  done;
  t.min_key.(row) <- !k;
  !k

let retreat t row =
  let base = row * t.nbuckets in
  let k = ref t.max_key.(row) in
  while !k >= 0 && t.heads.(base + !k) < 0 do
    decr k
  done;
  t.max_key.(row) <- !k;
  !k

let no_move ~j:_ ~target:_ = true
let no_swap ~j1:_ ~j2:_ = true

(* GFM: walk every row's buckets upward while their bound can still
   beat the incumbent.  A cell is filtered by its exact delta, then by
   capacity on the flat arrays ([Gains.move_fits]'s expression) and
   its timing count (a move is timing-legal iff it violates no
   partner), and only then reaches [legal]. *)
let best_move ?(legal = no_move) t =
  let m = t.m and nb = t.nbuckets and timed = t.ncons > 0 in
  let df = t.df and sizes = t.sizes and lbs = t.lbs and next = t.next in
  let best_d = ref infinity and best_j = ref (-1) and best_i = ref (-1) in
  for row = 0 to (m * m) - 1 do
    let count = t.row_count.(row) in
    if count > 0 then begin
      let dst = row mod m in
      let load = t.loads.(dst) and room = t.cap.(dst) in
      let base = row * nb in
      let seen = ref 0 in
      let k = ref (advance t row) in
      while !k < nb && !seen < count do
        if lbs.(!k) <= !best_d then begin
          let c = ref t.heads.(base + !k) in
          while !c >= 0 do
            incr seen;
            let d = df.(!c) in
            if d <= !best_d then begin
              let j = !c / m in
              if
                load +. sizes.(j) <= room
                && ((not timed) || t.tbad.(!c) = 0)
                && (d < !best_d || (d = !best_d && (j < !best_j || (j = !best_j && dst < !best_i))))
                && legal ~j ~target:dst
              then begin
                best_d := d;
                best_j := j;
                best_i := dst
              end
            end;
            c := next.(!c)
          done;
          incr k
        end
        else k := nb
      done
    end
  done;
  if !best_j < 0 then None else Some (!best_j, !best_i, !best_d)

(* The timing legality of one swap end: [j] at [at] with [other] in
   [j]'s old place ([Check.placement_ok]; ids past the budgets' range,
   GKL's dummies, carry none). *)
let[@inline] end_ok t ~j ~at ~other =
  match t.cons with
  | Some c when j < t.ncons -> Check.placement_ok c t.topo ~assignment:t.a ~j ~at ~other
  | _ -> true

(* A capacity-feasible pair whose bound can still beat the incumbent:
   its exact delta is [Gains.swap_delta] computed over the flat table
   in the same operation order (so ties compare bit for bit), then the
   (delta, j1, j2) order decides, and only a winner reaches the timing
   check and [legal]. *)
let consider t ~legal ja jb =
  let m = t.m and a = t.a and df = t.df in
  let j1 = if ja < jb then ja else jb and j2 = if ja < jb then jb else ja in
  let q1 = a.(j1) and q2 = a.(j2) in
  let d = df.((j1 * m) + q2) +. df.((j2 * m) + q1) in
  let k = Netlist.adj_slot t.nl j1 j2 in
  let d =
    if k < 0 then d
    else begin
      let w = (Netlist.adj_weights t.nl).(k) in
      d +. (t.beta *. w *. t.bf.((q2 * m) + q1)) +. (t.beta *. w *. t.bf.((q1 * m) + q2))
    end
  in
  let best = t.sel_d.(0) in
  if
    (d < best || (d = best && (j1 < t.sel_j.(0) || (j1 = t.sel_j.(0) && j2 < t.sel_j.(1)))))
    && end_ok t ~j:j1 ~at:q2 ~other:j2
    && end_ok t ~j:j2 ~at:q1 ~other:j1
    && legal ~j1 ~j2
  then begin
    t.sel_d.(0) <- d;
    t.sel_j.(0) <- j1;
    t.sel_j.(1) <- j2
  end

(* Every swap between partitions p1 < p2 pairs a cell of row p1->p2
   (its component ja sits in p1) with one of row p2->p1.  Row p1->p2
   is walked bucket by bucket; for each ja, the non-empty buckets of
   p2->p1 are walked upward while da + lb(bucket) can still beat the
   incumbent.  Those keys are compacted into [nz] on first use, so no
   empty bucket is stepped over twice in one visit.  Per partner the
   filters run cheapest first: the delta-sum bound, then capacity on
   the flat arrays ([Gains.swap_fits]'s expressions), then the exact
   delta in [consider]. *)
let visit_pair t ~legal p1 p2 =
  let m = t.m and nb = t.nbuckets in
  let df = t.df and sizes = t.sizes and lbs = t.lbs and next = t.next and heads = t.heads in
  let corr = t.corr_lb and sel_d = t.sel_d and nz = t.nz in
  let ra = (p1 * m) + p2 and rb = (p2 * m) + p1 in
  let base_a = ra * nb and base_b = rb * nb in
  let ca = t.row_count.(ra) in
  let kb0 = t.min_key.(rb) and kb_hi = retreat t rb in
  let lb_b0 = lbs.(kb0) in
  let cap1 = t.cap.(p1) and cap2 = t.cap.(p2) in
  let load1 = t.loads.(p1) and load2 = t.loads.(p2) in
  let nz_len = ref 0 and nz_scan = ref kb0 in
  let ka = ref t.min_key.(ra) and seen_a = ref 0 in
  while !ka < nb && !seen_a < ca do
    let head = heads.(base_a + !ka) in
    if head < 0 then incr ka
    else if lbs.(!ka) +. lb_b0 +. corr <= sel_d.(0) then begin
      let c1 = ref head in
      while !c1 >= 0 do
        incr seen_a;
        let da = df.(!c1) in
        if da +. lb_b0 +. corr <= sel_d.(0) then begin
          let ja = !c1 / m in
          let sa = sizes.(ja) in
          let rest1 = load1 -. sa in
          let idx = ref 0 and more = ref true in
          while !more do
            while !nz_len <= !idx && !nz_scan <= kb_hi do
              if heads.(base_b + !nz_scan) >= 0 then begin
                nz.(!nz_len) <- !nz_scan;
                incr nz_len
              end;
              incr nz_scan
            done;
            if !idx >= !nz_len then more := false
            else begin
              let kb = nz.(!idx) in
              if da +. lbs.(kb) +. corr <= sel_d.(0) then begin
                let c2 = ref heads.(base_b + kb) in
                while !c2 >= 0 do
                  if da +. df.(!c2) +. corr <= sel_d.(0) then begin
                    let jb = !c2 / m in
                    let sb = sizes.(jb) in
                    if rest1 +. sb <= cap1 && load2 -. sb +. sa <= cap2 then consider t ~legal ja jb
                  end;
                  c2 := next.(!c2)
                done;
                incr idx
              end
              else more := false
            end
          done
        end;
        c1 := next.(!c1)
      done;
      incr ka
    end
    else ka := nb
  done

(* Pairs are visited best-first by the bound of their two lowest
   buckets, so a strong incumbent is found early and most later pairs
   fail their first bound; once one key exceeds the incumbent every
   later one does too.  The winner is the lexicographic minimum over
   all candidates, so the visiting order cannot change it. *)
let best_swap ?(legal = no_swap) t =
  let m = t.m in
  let npairs = Array.length t.order in
  let key = t.pair_key and order = t.order and lbs = t.lbs in
  for q = 0 to npairs - 1 do
    let p1 = t.pair_lo.(q) and p2 = t.pair_hi.(q) in
    let ra = (p1 * m) + p2 and rb = (p2 * m) + p1 in
    key.(q) <-
      (if t.row_count.(ra) > 0 && t.row_count.(rb) > 0 then
         lbs.(advance t ra) +. lbs.(advance t rb) +. t.corr_lb
       else infinity)
  done;
  (* insertion sort: the order is left from the previous call and the
     keys move little between two selections *)
  for i = 1 to npairs - 1 do
    let q = order.(i) in
    let kq = key.(q) in
    let p = ref (i - 1) in
    while !p >= 0 && key.(order.(!p)) > kq do
      order.(!p + 1) <- order.(!p);
      decr p
    done;
    order.(!p + 1) <- q
  done;
  t.sel_d.(0) <- infinity;
  t.sel_j.(0) <- -1;
  t.sel_j.(1) <- -1;
  let pos = ref 0 in
  while !pos < npairs do
    let q = order.(!pos) in
    (* real keys are finite or -inf; +inf marks a pair with an empty row *)
    if key.(q) = infinity || key.(q) > t.sel_d.(0) then pos := npairs
    else begin
      visit_pair t ~legal t.pair_lo.(q) t.pair_hi.(q);
      incr pos
    end
  done;
  if t.sel_j.(0) < 0 then None else Some (t.sel_j.(0), t.sel_j.(1), t.sel_d.(0))
