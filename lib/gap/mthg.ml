type criterion = Cost | Cost_times_weight | Weight | Weight_per_capacity

let all_criteria = [ Cost; Cost_times_weight; Weight; Weight_per_capacity ]

let desirability (g : Gap.t) criterion i j =
  let base = j * g.Gap.m in
  let c = g.Gap.cost.(base + i) and w = g.Gap.weight.(base + i) in
  match criterion with
  | Cost -> c
  | Cost_times_weight -> c *. w
  | Weight -> w
  | Weight_per_capacity ->
    let cap = g.Gap.capacity.(i) in
    if cap > 0.0 then w /. cap else infinity

(* Scratch buffers for one (m, n) shape, reused across every STEP-4/6
   call of a portfolio start so the steady-state inner loop allocates
   nothing.  [out] doubles as the result buffer: a solve given a
   workspace returns [out] itself, valid until the next solve with the
   same workspace (the Burkard loop blits it into its own iterate
   straight away). *)
type workspace = {
  ws_m : int;
  ws_n : int;
  residual : float array;   (* m: residual capacities during construction *)
  cursor : int array;       (* m: position in the knapsack's weight order *)
  regret : float array;     (* n: f2 - f1 of the cached top-2 (infinity if < 2 fit) *)
  i1 : int array;           (* n: argbest *)
  i2 : int array;           (* n: arg second best *)
  trial : int array;        (* n: construction in progress *)
  out : int array;          (* n: champion across criteria / result *)
  order : int array;        (* n: relaxed_fill placement order *)
  key : float array;        (* n: relaxed_fill sort keys *)
  mutable desir : float array;   (* m*n desirabilities, for criteria that are not a matrix *)
  mutable no_fit : int;          (* unassigned items that fit nowhere *)
  mutable heap_r : float array;  (* lazy max-heap of (regret, item) entries *)
  mutable heap_j : int array;
  mutable heap_len : int;
}

let workspace ~m ~n =
  if m < 1 || n < 0 then invalid_arg "Mthg.workspace: need m >= 1 and n >= 0";
  {
    ws_m = m;
    ws_n = n;
    residual = Array.make m 0.0;
    cursor = Array.make m 0;
    regret = Array.make n infinity;
    i1 = Array.make n (-1);
    i2 = Array.make n (-1);
    trial = Array.make n (-1);
    out = Array.make n (-1);
    order = Array.make n 0;
    key = Array.make n 0.0;
    desir = [||];
    no_fit = 0;
    heap_r = Array.make (max 1 n) 0.0;
    heap_j = Array.make (max 1 n) 0;
    heap_len = 0;
  }

let ensure_ws ws (g : Gap.t) =
  match ws with
  | None -> workspace ~m:g.Gap.m ~n:g.Gap.n
  | Some ws ->
    if ws.ws_m <> g.Gap.m || ws.ws_n <> g.Gap.n then
      invalid_arg
        (Printf.sprintf "Mthg: workspace is %dx%d but instance is %dx%d" ws.ws_m ws.ws_n
           g.Gap.m g.Gap.n);
    ws

(* The desirability matrix of one construction, flat item-major like
   the instance: [Cost] and [Weight] are the instance's own arrays; the
   two derived criteria are filled into the workspace once, with the
   same float operation per cell as [desirability]. *)
let desirabilities (g : Gap.t) ws criterion =
  match criterion with
  | Cost -> g.Gap.cost
  | Weight -> g.Gap.weight
  | Cost_times_weight | Weight_per_capacity ->
    let { Gap.m; n; _ } = g in
    if Array.length ws.desir < m * n then ws.desir <- Array.make (m * n) 0.0;
    let d = ws.desir in
    for j = 0 to n - 1 do
      for i = 0 to m - 1 do
        d.((j * m) + i) <- desirability g criterion i j
      done
    done;
    d

(* The selection heap is a lazy max-heap of (regret, item) entries,
   4-ary with hole-based sifting: the element under placement rides in
   registers while parents/children shift into the hole, so each level
   costs loads plus one store instead of a full swap, and the tree is
   half as deep as a binary heap's.  Pop order depends only on the
   entry multiset and the (regret desc, item asc) total order, never
   on the heap's internal shape.  A pushed entry carries the item's
   current [regret]. *)
let heap_push ws j =
  let r = ws.regret.(j) in
  let len = ws.heap_len in
  if len = Array.length ws.heap_j then begin
    let cap = max 8 (2 * len) in
    let nr = Array.make cap 0.0 and nj = Array.make cap 0 in
    Array.blit ws.heap_r 0 nr 0 len;
    Array.blit ws.heap_j 0 nj 0 len;
    ws.heap_r <- nr;
    ws.heap_j <- nj
  end;
  let hr = ws.heap_r and hj = ws.heap_j in
  ws.heap_len <- len + 1;
  let k = ref len in
  let continue = ref true in
  while !continue && !k > 0 do
    let p = (!k - 1) / 4 in
    if r > hr.(p) || (r = hr.(p) && j < hj.(p)) then begin
      hr.(!k) <- hr.(p);
      hj.(!k) <- hj.(p);
      k := p
    end
    else continue := false
  done;
  hr.(!k) <- r;
  hj.(!k) <- j

(* Remove the root; the caller reads [heap_r.(0)]/[heap_j.(0)] first. *)
let heap_pop ws =
  let hr = ws.heap_r and hj = ws.heap_j in
  let len = ws.heap_len - 1 in
  ws.heap_len <- len;
  if len > 0 then begin
    let r = hr.(len) and j = hj.(len) in
    let k = ref 0 in
    let continue = ref true in
    while !continue do
      let c0 = (4 * !k) + 1 in
      if c0 >= len then continue := false
      else begin
        let last = min (c0 + 3) (len - 1) in
        let b = ref c0 in
        for c = c0 + 1 to last do
          if hr.(c) > hr.(!b) || (hr.(c) = hr.(!b) && hj.(c) < hj.(!b)) then b := c
        done;
        if hr.(!b) > r || (hr.(!b) = r && hj.(!b) < j) then begin
          hr.(!k) <- hr.(!b);
          hj.(!k) <- hj.(!b);
          k := !b
        end
        else continue := false
      end
    done;
    hr.(!k) <- r;
    hj.(!k) <- j
  end

(* Recompute item [j]'s best and second-best feasible desirability.
   [cascade]: the item was already on the heap (a refresh after a
   placement, not the initial build).  An unchanged regret keeps its
   existing heap entry valid (validity is checked against the current
   regret on pop), so refreshes that only reshuffle the argknapsacks —
   the common case under tie-heavy criteria — push nothing. *)
let refresh (g : Gap.t) ws desir ~cascade j =
  let m = g.Gap.m and weight = g.Gap.weight and residual = ws.residual in
  let old_r = ws.regret.(j) in
  let base = j * m in
  let f1 = ref infinity and f2 = ref infinity and b1 = ref (-1) and b2 = ref (-1) in
  for i = 0 to m - 1 do
    if weight.(base + i) <= residual.(i) then begin
      let f = desir.(base + i) in
      if f < !f1 then begin
        f2 := !f1;
        b2 := !b1;
        f1 := f;
        b1 := i
      end
      else if f < !f2 then begin
        f2 := f;
        b2 := i
      end
    end
  done;
  ws.i1.(j) <- !b1;
  ws.i2.(j) <- !b2;
  let r = if !f2 = infinity then infinity else !f2 -. !f1 in
  ws.regret.(j) <- r;
  if !b1 = -1 then ws.no_fit <- ws.no_fit + 1
  else if not (cascade && r = old_r) then heap_push ws j

(* Greedy regret construction.  For each unassigned item we track its
   best and second-best feasible desirability; the item with the
   largest regret is committed first, so items that are about to lose
   their good options are placed early.

   Each item's (best, second-best) pair is cached and only recomputed
   when the knapsack just filled was one of the two AND that knapsack
   no longer fits the item: desirabilities depend only on the fixed
   (cost, weight, capacity) data, so while the top-2 knapsacks still
   have room the cached pair is exact.  (A knapsack outside the top
   two that becomes infeasible cannot affect the top two either.)

   Selection pops the lazy heap: regret changes only on refresh, and
   every refresh that changes it pushes a fresh entry, so the top
   valid entry is always the true maximum; stale entries (item already
   placed, or regret no longer current) are dropped on pop.

   The refresh cascade walks the instance's per-knapsack weight order
   (heaviest first) with one cursor per knapsack.  A placement into
   [i] lowers its residual, and the items it pushes out of [i] are
   exactly the next run of that order whose weight now exceeds the
   residual; of those, the unassigned ones holding [i] in their top
   two are refreshed.  Those are all the items that hold [i] in
   their top two and no longer fit it (such an item still fitted [i]
   before this placement, or an earlier one would have refreshed it),
   and each knapsack's cursor crosses every item at most once per
   construction: O(n·m) per construction even when the criterion ties
   every item onto the same two knapsacks, as [Weight] does under
   w_ij = s_j, where a per-knapsack list of the items holding it would
   be walked in full, Θ(n), at every placement.  Refresh order cannot
   change the result: the pushed entries are the same, and the heap's
   pop order depends only on its entry multiset (DESIGN.md D14). *)
let construct_into ?(criterion = Cost) (g : Gap.t) ws assignment =
  let { Gap.m; n; _ } = g in
  let weight = g.Gap.weight and by_weight = g.Gap.by_weight in
  let residual = ws.residual and i1 = ws.i1 and i2 = ws.i2 and regret = ws.regret in
  let desir = desirabilities g ws criterion in
  Array.blit g.Gap.capacity 0 residual 0 m;
  Array.fill ws.cursor 0 m 0;
  Array.fill assignment 0 n (-1);
  ws.heap_len <- 0;
  (* any unassigned item with no fitting knapsack aborts the
     construction *)
  ws.no_fit <- 0;
  for j = 0 to n - 1 do
    refresh g ws desir ~cascade:false j
  done;
  let unassigned = ref n in
  let stuck = ref false in
  while !unassigned > 0 && not !stuck do
    if ws.no_fit > 0 then stuck := true
    else begin
      let j = ref (-1) in
      while !j < 0 && ws.heap_len > 0 do
        let r = ws.heap_r.(0) and cand = ws.heap_j.(0) in
        heap_pop ws;
        if assignment.(cand) = -1 && i1.(cand) >= 0 && r = regret.(cand) then j := cand
      done;
      if !j < 0 then stuck := true
      else begin
        let j = !j in
        let i = i1.(j) in
        assignment.(j) <- i;
        residual.(i) <- residual.(i) -. weight.((j * m) + i);
        decr unassigned;
        let room = residual.(i) in
        let off = g.Gap.order_of.(i) in
        let c = ref ws.cursor.(i) in
        while !c < n && weight.((by_weight.(off + !c) * m) + i) > room do
          let j' = by_weight.(off + !c) in
          if assignment.(j') = -1 && (i1.(j') = i || i2.(j') = i) then
            refresh g ws desir ~cascade:true j';
          incr c
        done;
        ws.cursor.(i) <- !c
      end
    end
  done;
  not !stuck

let construct ?criterion (g : Gap.t) =
  let ws = workspace ~m:g.Gap.m ~n:g.Gap.n in
  if construct_into ?criterion g ws ws.trial then Some ws.trial else None

type improver = [ `None | `Shift | `Shift_and_swap ]

(* In-place improver for the pooled path: [residual] must already be
   consistent with [a] (construction leaves it that way). *)
let improve_in_place improve g a ~residual =
  match improve with
  | `None -> ()
  | `Shift -> Improve.shift_in_place g a ~residual
  | `Shift_and_swap -> Improve.shift_and_swap_in_place g a ~residual

let solve ?ws ?(criteria = all_criteria) ?(improve = `Shift_and_swap) g =
  Gap.verify_domain g;
  let ws = ensure_ws ws g in
  let n = g.Gap.n in
  let found = ref false in
  let best_cost = ref infinity in
  let todo = ref criteria in
  while !todo != [] do
    match !todo with
    | [] -> ()
    | criterion :: rest ->
      todo := rest;
      if construct_into ~criterion g ws ws.trial then begin
        (* construction leaves ws.residual = capacity - loads(trial),
           so improvement runs in place with no setup *)
        improve_in_place improve g ws.trial ~residual:ws.residual;
        let c = Gap.cost_of g ws.trial in
        if (not !found) || c < !best_cost then begin
          found := true;
          best_cost := c;
          Array.blit ws.trial 0 ws.out 0 n
        end
      end
  done;
  if !found then Some ws.out else None

(* [a] sorted in place by [key] descending.  This is [Array.sort]'s
   ternary heap sort step for step — same comparisons, same moves — so
   equal keys land in the order it gives them; it signals "no child"
   with -1 where [Array.sort] raises an exception, which allocated a
   block per sifted item. *)
let sort_by_key_desc key a =
  let cmp x y = Float.compare key.(y) key.(x) in
  let l = Array.length a in
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if cmp a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
      if cmp a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
    end
    else if i31 + 1 < l && cmp a.(i31) a.(i31 + 1) < 0 then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let trickle l i e =
    let i = ref i and continue = ref true in
    while !continue do
      let j = maxson l !i in
      if j >= 0 && cmp a.(j) e > 0 then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        continue := false
      end
    done
  in
  let bubble l i =
    let i = ref i and j = ref (maxson l i) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson l !i
    done;
    !i
  in
  let trickleup i e =
    let i = ref i and continue = ref true in
    while !continue do
      let father = (!i - 1) / 3 in
      if cmp a.(father) e < 0 then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          continue := false
        end
      end
      else begin
        a.(!i) <- e;
        continue := false
      end
    done
  in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let relaxed_fill_into (g : Gap.t) ws assignment =
  (* Place every item greedily by cost among fitting knapsacks; if none
     fits, take the knapsack with maximum residual capacity. *)
  let { Gap.m; n; _ } = g in
  let cost = g.Gap.cost and weight = g.Gap.weight in
  let residual = ws.residual and order = ws.order and key = ws.key in
  Array.blit g.Gap.capacity 0 residual 0 m;
  (* Big items first: standard first-fit-decreasing flavor.  Keys are
     precomputed so the sort does not rescan m weights per
     comparison. *)
  for j = 0 to n - 1 do
    order.(j) <- j;
    let base = j * m in
    let w = ref 0.0 in
    for i = 0 to m - 1 do
      w := Float.max !w weight.(base + i)
    done;
    key.(j) <- !w
  done;
  sort_by_key_desc key order;
  Array.iter
    (fun j ->
      let base = j * m in
      let best = ref (-1) in
      for i = 0 to m - 1 do
        if weight.(base + i) <= residual.(i)
           && (!best = -1 || cost.(base + i) < cost.(base + !best))
        then best := i
      done;
      let i =
        if !best >= 0 then !best
        else begin
          (* nothing fits: overflow the roomiest knapsack *)
          let roomiest = ref 0 in
          for i = 1 to m - 1 do
            if residual.(i) > residual.(!roomiest) then roomiest := i
          done;
          !roomiest
        end
      in
      assignment.(j) <- i;
      residual.(i) <- residual.(i) -. weight.(base + i))
    order

let solve_relaxed ?ws ?criteria ?(improve = `Shift_and_swap) g =
  Gap.verify_domain g;
  let ws = ensure_ws ws g in
  match solve ~ws ?criteria ~improve g with
  | Some a -> a
  | None ->
    relaxed_fill_into g ws ws.out;
    if Gap.feasible g ws.out then begin
      Improve.residual_into g ws.out ws.residual;
      improve_in_place improve g ws.out ~residual:ws.residual
    end;
    ws.out
