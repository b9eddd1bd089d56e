module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Dompool = Qbpart_pool.Dompool

(* Optional move accounting: when [delta]/[dviol] refs are supplied,
   every applied move adds its exact penalized-cost change and
   violation-count change, so callers can maintain a running penalized
   objective without any full recompute.  The cost change is free —
   the candidate row already prices both endpoints of the move — and
   the violation change is O(partners(j)) via
   [Qmatrix.violations_delta]. *)
let track_cost delta d = match delta with Some r -> r := !r +. d | None -> ()
let track_viol dviol d = match dviol with Some r -> r := !r + d | None -> ()

(* The candidate-row cache.  Row [j] (m floats at [j*m] of [rows]) is
   [Qmatrix.candidate_costs_at q pos ~j], and it reads [pos] only at
   [j]'s netlist neighbours and timing partners.  So a row stays exact
   until one of those moves (the FM rule: a move changes only its
   neighbours' gains).  A move then either clears their valid bytes,
   and a pass recomputes a cleared row with the same kernel on the same
   positions when it reaches it (DESIGN.md D16), or, on an exact
   surface, adds its effect to every valid row it touches, which gives
   the kernel's row bit for bit (D25).  Either way every value read is
   bit-identical to a fresh row whatever the data.  [pos] follows the
   assignment: a pass first diffs it against the cached positions, then
   updates it at every move.  Each valid row also keeps its minimum, so
   a pass can tell at one comparison that a component has nowhere
   cheaper to go (D23); a patch leaves it stale, and it is recomputed
   when a pass next reads it. *)
type cache = {
  c_m : int;
  c_n : int;
  rows : float array;            (* m*n *)
  mins : float array;            (* n: the least non-NaN entry of row j *)
  valid : Bytes.t;               (* n: '\001' when row j is current *)
  stale_min : Bytes.t;           (* n: '\001' when a patch changed row j after its minimum *)
  pos : int array;               (* n: the positions the rows price *)
  diffs : float array;           (* 2m: a mover's B-transposed and B difference rows *)
  mutable bound : Qmatrix.t option;  (* the penalty surface they price *)
}

let cache ~m ~n =
  if m < 1 || n < 0 then invalid_arg "Repair.cache: need m >= 1 and n >= 0";
  {
    c_m = m;
    c_n = n;
    rows = Array.make (m * n) 0.0;
    mins = Array.make n infinity;
    valid = Bytes.make n '\000';
    stale_min = Bytes.make n '\000';
    pos = Array.make n 0;
    diffs = Array.make (2 * m) 0.0;
    bound = None;
  }

let invalidate_neighbours c q j =
  let problem = Qmatrix.problem q in
  let xadj = Netlist.adj_offsets problem.Problem.netlist in
  let anbr = Netlist.adj_targets problem.Problem.netlist in
  for k = xadj.(j) to xadj.(j + 1) - 1 do
    Bytes.unsafe_set c.valid anbr.(k) '\000'
  done;
  let cons = problem.Problem.constraints in
  let poff = Constraints.partner_offsets cons in
  let pids = Constraints.partner_ids cons in
  for k = poff.(j) to poff.(j + 1) - 1 do
    Bytes.unsafe_set c.valid pids.(k) '\000'
  done

(* Add [sign] penalties to the entries of row [off] that the kernel
   charges for a partner in [block] under the budget [budgets.(s)]:
   the prefix of that block of a delay order whose delays exceed it. *)
let shift_penalty rows ~off (order : Topology.delay_order) ~block ~m budgets s ~sign pen =
  let ids = order.Topology.ids and delays = order.Topology.delays in
  let x = float_of_int sign *. pen in
  let p = ref block in
  while !p < block + m && delays.(!p) > budgets.(s) do
    let o = off + ids.(!p) in
    rows.(o) <- rows.(o) +. x;
    incr p
  done

(* The move of [j] from [from] to [dest] on an exact surface, added to
   the valid rows it touches (DESIGN.md D25).  Each term is the kernel's
   own: row k charges the wire to j with B transposed when k < j and
   with B otherwise, so it gains w times the difference of that
   orientation's rows [dest] and [from]; and it charges the penalty on
   the delay-order prefixes of j's block, so those of block [from] lose
   it and those of block [dest] gain it.  Every value is an integer
   below 2^52, so each sum is exact and the row equals the kernel's
   whatever the order of its additions.  An invalid row stays invalid:
   it was never computed against these positions. *)
let patch_neighbours c q j ~from ~dest =
  let problem = Qmatrix.problem q in
  let m = c.c_m in
  let rows = c.rows and valid = c.valid in
  let topo = problem.Problem.topology in
  let nl = problem.Problem.netlist in
  let xadj = Netlist.adj_offsets nl in
  let anbr = Netlist.adj_targets nl and awgt = Netlist.adj_weights nl in
  if xadj.(j + 1) > xadj.(j) then begin
    let bf = Topology.b_flat topo and bt = Topology.bt_flat topo in
    let d = c.diffs in
    let ra = from * m and rb = dest * m in
    for i = 0 to m - 1 do
      d.(i) <- bt.(rb + i) -. bt.(ra + i);
      d.(m + i) <- bf.(rb + i) -. bf.(ra + i)
    done;
    for s = xadj.(j) to xadj.(j + 1) - 1 do
      let k = anbr.(s) in
      if Bytes.unsafe_get valid k = '\001' then begin
        let w = awgt.(s) and off = k * m and src = if k < j then 0 else m in
        for i = 0 to m - 1 do
          rows.(off + i) <- rows.(off + i) +. (w *. d.(src + i))
        done;
        Bytes.unsafe_set c.stale_min k '\001'
      end
    done
  end;
  let cons = problem.Problem.constraints in
  let poff = Constraints.partner_offsets cons in
  let pids = Constraints.partner_ids cons in
  let pbout = Constraints.partner_budget_out cons in
  let pbin = Constraints.partner_budget_in cons in
  let to_j = Topology.d_col_order topo and from_j = Topology.d_row_order topo in
  let pen = Qmatrix.penalty q in
  let old_block = from * m and new_block = dest * m in
  for s = poff.(j) to poff.(j + 1) - 1 do
    let k = pids.(s) in
    if Bytes.unsafe_get valid k = '\001' then begin
      let off = k * m in
      (* k's budget to j is j's incoming slot for k, and k's budget from
         j is j's outgoing slot *)
      shift_penalty rows ~off to_j ~block:old_block ~m pbin s ~sign:(-1) pen;
      shift_penalty rows ~off to_j ~block:new_block ~m pbin s ~sign:1 pen;
      shift_penalty rows ~off from_j ~block:old_block ~m pbout s ~sign:(-1) pen;
      shift_penalty rows ~off from_j ~block:new_block ~m pbout s ~sign:1 pen;
      Bytes.unsafe_set c.stale_min k '\001'
    end
  done

(* [j] moved to [dest]: the rows it touches are patched on an exact
   surface and invalidated on any other *)
let move c q j ~dest =
  if Qmatrix.exact q then patch_neighbours c q j ~from:c.pos.(j) ~dest
  else invalidate_neighbours c q j;
  c.pos.(j) <- dest

(* Make the cache price [q] at [u]: a different surface (another
   penalty, another problem) drops every row; otherwise each
   component that moved since the rows were computed — by a GAP jump,
   a pair move, a caller's edit — patches or invalidates its
   neighbours' rows. *)
let sync c q u =
  let n = c.c_n in
  if Array.length u <> n || Problem.m (Qmatrix.problem q) <> c.c_m then
    invalid_arg "Repair: cache shape does not match the problem";
  match c.bound with
  | Some q' when q' == q ->
    for j = 0 to n - 1 do
      if u.(j) <> c.pos.(j) then move c q j ~dest:u.(j)
    done
  | _ ->
    c.bound <- Some q;
    Bytes.fill c.valid 0 n '\000';
    Array.blit u 0 c.pos 0 n

let rows c = c.rows

let update_min c j =
  let off = j * c.c_m in
  let least = ref infinity in
  for r = off to off + c.c_m - 1 do
    if c.rows.(r) < !least then least := c.rows.(r)
  done;
  c.mins.(j) <- !least;
  Bytes.unsafe_set c.stale_min j '\000'

(* Recompute row [j] and its minimum; the caller sets the valid byte. *)
let compute_row c q u j =
  Qmatrix.candidate_costs_at q u ~j ~off:(j * c.c_m) c.rows;
  update_min c j

(* STEP 3 under the Solver rule: the cache, brought to [u] and made
   whole, is η.  Each chunk writes only its own components' rows and
   reads the valid bytes; they are set once the fan-out has joined.
   Most refreshes follow in-place patches and recompute a handful of
   rows, so the fan-out waits for [Qmatrix.parallel_eta_cutoff]
   invalid rows, below which it costs more than it splits (DESIGN.md
   D28); a one-domain pool skips the count. *)
let refresh c q u ~pool =
  sync c q u;
  let n = c.c_n and valid = c.valid in
  let recompute ~jlo ~jhi =
    for j = jlo to jhi - 1 do
      if Bytes.unsafe_get valid j = '\000' then compute_row c q u j
    done
  in
  let invalid = ref 0 in
  if Dompool.size pool > 1 then
    for j = 0 to n - 1 do
      if Bytes.unsafe_get valid j = '\000' then incr invalid
    done;
  if !invalid >= Qmatrix.parallel_eta_cutoff then Qmatrix.component_chunks pool ~n recompute
  else recompute ~jlo:0 ~jhi:n;
  Bytes.fill valid 0 n '\001'

let binding c = Option.map (fun q -> (q, Array.copy c.pos)) c.bound

let valid_row c j =
  if j < 0 || j >= c.c_n then invalid_arg "Repair.valid_row: component out of range";
  if Bytes.get c.valid j = '\000' then None
  else begin
    if Bytes.get c.stale_min j = '\001' then update_min c j;
    Some (Array.sub c.rows (j * c.c_m) c.c_m, c.mins.(j))
  end

let transient q =
  let problem = Qmatrix.problem q in
  cache ~m:(Problem.m problem) ~n:(Problem.n problem)

let coordinate_pass ?delta ?dviol ?cache q u ~loads ~scratch =
  let problem = Qmatrix.problem q in
  let nl = problem.Problem.netlist in
  let capacity = Topology.capacity_array problem.Problem.topology in
  let m = Problem.m problem and n = Problem.n problem in
  (match cache with Some c -> sync c q u | None -> ());
  (* rows are read from the cache at [j*m], or computed fresh into
     [scratch] at 0 *)
  let row = match cache with Some c -> c.rows | None -> scratch in
  let moved = ref false in
  (* the running cost change stays an unboxed local through the pass
     (a float stored into a ref cell is boxed): the caller's ref is
     read once and written once, with the same additions in between *)
  let dcost = ref (match delta with Some r -> !r | None -> 0.0) in
  for j = 0 to n - 1 do
    let off =
      match cache with
      | None ->
        Qmatrix.candidate_costs_into q u ~j scratch;
        0
      | Some c ->
        if Bytes.unsafe_get c.valid j = '\000' then begin
          compute_row c q u j;
          Bytes.unsafe_set c.valid j '\001'
        end;
        j * m
    in
    let from = u.(j) in
    let overfull = loads.(from) > capacity.(from) in
    (* A component already at its row's minimum stays: no entry is
       strictly cheaper, and the tie rule below fires only from an
       overfull partition.  A NaN entry fails the [<=] and is scanned. *)
    let at_least =
      match cache with
      | Some c ->
        (not overfull)
        && begin
             if Bytes.unsafe_get c.stale_min j = '\001' then update_min c j;
             row.(off + from) <= c.mins.(j)
           end
      | None -> false
    in
    let s = Netlist.size nl j in
    let best = ref from in
    let best_cost = ref row.(off + from) in
    if not at_least then
      for i = 0 to m - 1 do
        if i <> from && loads.(i) +. s <= capacity.(i) then
          if
            row.(off + i) < !best_cost
            || (overfull && !best = from && row.(off + i) <= !best_cost +. 1e-9)
          then begin
            best := i;
            best_cost := row.(off + i)
          end
      done;
    if !best <> from then begin
      dcost := !dcost +. (!best_cost -. row.(off + from));
      track_viol dviol (Qmatrix.violations_delta q u ~j ~i:!best);
      loads.(from) <- loads.(from) -. s;
      loads.(!best) <- loads.(!best) +. s;
      u.(j) <- !best;
      (match cache with Some c -> move c q j ~dest:!best | None -> ());
      moved := true
    end
  done;
  (match delta with Some r -> r := !dcost | None -> ());
  !moved

(* Up to [passes] coordinate passes on a cache ([transient] without
   one).  The optional arguments are passed on as the options they
   already are, so a pass allocates no wrapper. *)
let descend ?delta ?dviol ?cache q u ~passes =
  if passes > 0 then begin
    let problem = Qmatrix.problem q in
    let m = Problem.m problem in
    let cache = match cache with Some _ -> cache | None -> Some (transient q) in
    let loads = Assignment.loads problem.Problem.netlist ~m u in
    let scratch = Array.make m 0.0 in
    let k = ref passes in
    while !k > 0 && coordinate_pass ?delta ?dviol ?cache q u ~loads ~scratch do
      decr k
    done
  end

let polish ?cache q u ~passes = descend ?cache q u ~passes

let polish_tracked ?cache q u ~passes =
  let delta = ref 0.0 and dviol = ref 0 in
  descend ~delta ~dviol ?cache q u ~passes;
  (!delta, !dviol)

(* Exact local cost of component [j] at its current position: the
   candidate-cost row evaluated at u.(j). *)
let local_cost q u scratch j =
  Qmatrix.candidate_costs_into q u ~j scratch;
  scratch.(u.(j))

(* Cost terms shared by the two endpoints of a pair (they both count
   the direct wire and the mutual timing penalties in their local
   costs, so the joint cost must subtract one copy).  The caller looks
   the pair's budgets [b12] and [b21] up once: a float returned by
   another module's function is boxed on every call. *)
let shared_cost q j1 j2 ~b12 ~b21 i1 i2 =
  let problem = Qmatrix.problem q in
  let topo = problem.Problem.topology in
  let m = Problem.m problem in
  let bf = Topology.b_flat topo and df = Topology.d_flat topo in
  let w = Netlist.connection problem.Problem.netlist j1 j2 in
  let wire =
    if w = 0.0 then 0.0
    else if j1 < j2 then w *. bf.((i1 * m) + i2)
    else w *. bf.((i2 * m) + i1)
  in
  let pen = Qmatrix.penalty q in
  let timing =
    (if df.((i1 * m) + i2) > b12 then pen else 0.0)
    +. if df.((i2 * m) + i1) > b21 then pen else 0.0
  in
  wire +. timing

let pair_pass ?delta ?dviol q u ~loads ~max_pairs =
  let problem = Qmatrix.problem q in
  let nl = problem.Problem.netlist in
  let topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  let m = Problem.m problem and n = Problem.n problem in
  let df = Topology.d_flat topo and capacity = Topology.capacity_array topo in
  let scratch = Array.make m 0.0 in
  let row1 = Array.make m 0.0 and row2 = Array.make m 0.0 in
  (* violated unordered pairs under the current assignment.  The
     partner CSR lists every stored budget j1 -> j2 as the finite
     outgoing budget of slot j2 in row j1, rows ascending and partners
     ascending: the order of the raw budget store, so the table (and
     the candidate list folded out of it) is the one a walk of that
     store would build. *)
  let poff = Constraints.partner_offsets cons in
  let pids = Constraints.partner_ids cons in
  let pbout = Constraints.partner_budget_out cons in
  let seen = Hashtbl.create 64 in
  for j1 = 0 to n - 1 do
    let row = u.(j1) * m in
    for k = poff.(j1) to poff.(j1 + 1) - 1 do
      let j2 = pids.(k) in
      if df.(row + u.(j2)) > pbout.(k) then begin
        let key = if j1 < j2 then (j1, j2) else (j2, j1) in
        if not (Hashtbl.mem seen key) then Hashtbl.replace seen key ()
      end
    done
  done;
  let pairs = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
  let pairs = List.filteri (fun i _ -> i < max_pairs) pairs in
  let moved = ref false in
  List.iter
    (fun (j1, j2) ->
      let p1 = u.(j1) and p2 = u.(j2) in
      let s1 = Netlist.size nl j1 and s2 = Netlist.size nl j2 in
      let b12 = Constraints.budget cons j1 j2 and b21 = Constraints.budget cons j2 j1 in
      let current =
        local_cost q u scratch j1 +. local_cost q u scratch j2
        -. shared_cost q j1 j2 ~b12 ~b21 p1 p2
      in
      (* free the pair's own space while testing placements *)
      loads.(p1) <- loads.(p1) -. s1;
      loads.(p2) <- loads.(p2) -. s2;
      (* joint(i1,i2) = row1(i1 | j2@i2) + base2(i2), where base2 is
         j2's cost with the j1 contribution removed: row1 already
         contains the shared wire/timing term exactly once. *)
      Qmatrix.candidate_costs_into q u ~j:j2 row2;
      let base2 = Array.init m (fun i2 -> row2.(i2) -. shared_cost q j1 j2 ~b12 ~b21 p1 i2) in
      let best = ref (p1, p2) and best_cost = ref current in
      for i2 = 0 to m - 1 do
        u.(j2) <- i2;
        Qmatrix.candidate_costs_into q u ~j:j1 row1;
        for i1 = 0 to m - 1 do
          let fits =
            if i1 = i2 then loads.(i1) +. s1 +. s2 <= capacity.(i1)
            else loads.(i1) +. s1 <= capacity.(i1) && loads.(i2) +. s2 <= capacity.(i2)
          in
          if fits then begin
            let joint = row1.(i1) +. base2.(i2) in
            if joint < !best_cost -. 1e-9 then begin
              best_cost := joint;
              best := (i1, i2)
            end
          end
        done
      done;
      u.(j2) <- p2;
      let b1, b2 = !best in
      if b1 <> p1 || b2 <> p2 then begin
        track_cost delta (!best_cost -. current);
        (* the pair move decomposes exactly into two sequential single
           moves; each violation delta is evaluated on the intermediate
           state it applies to *)
        track_viol dviol (Qmatrix.violations_delta q u ~j:j1 ~i:b1);
        u.(j1) <- b1;
        track_viol dviol (Qmatrix.violations_delta q u ~j:j2 ~i:b2);
        u.(j2) <- b2;
        moved := true
      end;
      loads.(b1) <- loads.(b1) +. s1;
      loads.(b2) <- loads.(b2) +. s2)
    pairs;
  !moved

let to_feasible ?cache q u ~rounds =
  (* one full count up front, then maintained incrementally by the
     passes — the per-round O(constraints) feasibility rescan was a
     hot-loop cost on constraint-heavy circuits *)
  let viol = ref (Qmatrix.violations q u) in
  if !viol > 0 && rounds > 0 then begin
    let problem = Qmatrix.problem q in
    let m = Problem.m problem in
    let cache = match cache with Some _ -> cache | None -> Some (transient q) in
    let loads = Assignment.loads problem.Problem.netlist ~m u in
    let scratch = Array.make m 0.0 in
    let dviol = Some viol in
    let round = ref 0 in
    let continue = ref true in
    while !continue && !round < rounds && !viol > 0 do
      incr round;
      let c1 = ref false in
      let k = ref 5 in
      while !k > 0 && coordinate_pass ?dviol ?cache q u ~loads ~scratch do
        c1 := true;
        decr k
      done;
      (* the pair pass prices its what-if placements fresh; the next
         coordinate pass's position diff picks up the pairs it moved *)
      let c2 = pair_pass ?dviol q u ~loads ~max_pairs:400 in
      continue := !c1 || c2
    done
  end;
  !viol = 0
