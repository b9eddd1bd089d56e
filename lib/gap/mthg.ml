module Dompool = Qbpart_pool.Dompool

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

(* A construction whose desirability ignores cost ([Weight],
   [Weight_per_capacity]), saved by a pooled [solve]: the items'
   knapsacks and the residual capacities it left, or the fact that it
   got stuck.  The buffers are allocated on the first save. *)
type memo_state = Unbuilt | Built | Stuck

type memo = {
  mutable state : memo_state;
  mutable placed : int array;    (* n *)
  mutable left : float array;    (* m *)
}

let memo () = { state = Unbuilt; placed = [||]; left = [||] }

(* Scratch buffers for one (m, n) shape, reused across every STEP-4/6
   call of a portfolio start so the steady-state inner loop allocates
   nothing.  [out] doubles as the result buffer: a solve given a
   workspace returns [out] itself, valid until the next solve with the
   same workspace (the Burkard loop blits it into its own iterate
   straight away).  Forked on a pool of more than one domain, a
   [construct_best] runs criterion [k > 0] in [legs.(k - 1)], a
   workspace of its own made on the first fork, and each leg [k]
   leaves its result in slot [k] of [leg_built] and [leg_cost]
   (DESIGN.md D28). *)
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
  mutable order : int array;  (* n: first regrets in selection order; relaxed_fill's order *)
  mutable spare : int array;  (* n: the radix sort's other buffer *)
  hist : int array;           (* 256: the radix sort's bucket counts *)
  key : float array;          (* n: first regret per item; relaxed_fill sort keys *)
  mutable desir : float array;   (* m*n desirabilities, for criteria that are not a matrix *)
  mutable no_fit : int;          (* unassigned items that fit nowhere *)
  mutable heap_r : float array;  (* lazy max-heap of (regret, item) entries *)
  mutable heap_j : int array;
  mutable heap_len : int;
  min_cost : float array;        (* n: per-item cheapest cost, for the swap improver's skip *)
  mutable fitted : bool;         (* the last minima scan found the cheapest placement fits *)
  lists : Improve.lists;         (* the shift's candidate lists *)
  mutable memo_id : int;         (* Gap.weights_id the memos were built on; -1: none *)
  memo_capacity : float array;   (* m: ... and the capacities they were built with *)
  memo_weight : memo;
  memo_per_capacity : memo;
  mutable legs : workspace array;  (* leg k > 0's workspace at k - 1; [||] until a fork *)
  mutable leg_built : Bytes.t;   (* per leg: its construction built *)
  mutable leg_cost : float array;  (* ... and the improved placement's cost *)
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
    spare = Array.make n 0;
    hist = Array.make 256 0;
    key = Array.make n 0.0;
    desir = [||];
    no_fit = 0;
    heap_r = Array.make (max 1 n) 0.0;
    heap_j = Array.make (max 1 n) 0;
    heap_len = 0;
    min_cost = Array.make n 0.0;
    fitted = true;
    lists = Improve.lists ~m ~n;
    memo_id = -1;
    memo_capacity = Array.make m 0.0;
    memo_weight = memo ();
    memo_per_capacity = memo ();
    legs = [||];
    leg_built = Bytes.empty;
    leg_cost = [||];
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
   [cascade]: a refresh after a placement, which pushes a heap entry;
   the initial refresh pushes none ([first_entries] orders them).  An
   unchanged regret keeps the item's existing entry valid (validity is
   checked against the current regret on selection), so refreshes that
   only reshuffle the argknapsacks — the common case under tie-heavy
   criteria — push nothing. *)
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
  else if cascade && not (r = old_r) then heap_push ws j

(* Byte [shift / 8] of a key's bits.  The keys are +0.0, positive or
   +infinity, whose bit patterns order as their values do. *)
let digit key j shift =
  Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float key.(j)) shift) land 255

(* Leave in [ws.order] the items [0, n) by key descending, ties by item
   ascending: a stable LSD radix sort, one byte per pass, that starts
   from the items in ascending order and lays the buckets out from the
   largest byte down.  A byte that no two keys differ in keeps the
   order as it is, so its pass is skipped. *)
let sort_by_key ws n =
  let key = ws.key and hist = ws.hist in
  let b0 = Int64.bits_of_float key.(0) in
  (* [low]: bits 0..62 that differ from the first key; [top]: bits 56..63 *)
  let low = ref 0 and top = ref 0 in
  for j = 1 to n - 1 do
    let x = Int64.logxor (Int64.bits_of_float key.(j)) b0 in
    low := !low lor Int64.to_int x;
    top := !top lor Int64.to_int (Int64.shift_right_logical x 56)
  done;
  for j = 0 to n - 1 do
    ws.order.(j) <- j
  done;
  for byte = 0 to 7 do
    let shift = 8 * byte in
    if (if byte = 7 then !top else (!low lsr shift) land 255) <> 0 then begin
      let src = ws.order and dst = ws.spare in
      Array.fill hist 0 256 0;
      for j = 0 to n - 1 do
        let d = digit key j shift in
        hist.(d) <- hist.(d) + 1
      done;
      let at = ref 0 in
      for d = 255 downto 0 do
        let c = hist.(d) in
        hist.(d) <- !at;
        at := !at + c
      done;
      for k = 0 to n - 1 do
        let j = src.(k) in
        let d = digit key j shift in
        dst.(hist.(d)) <- j;
        hist.(d) <- hist.(d) + 1
      done;
      ws.order <- dst;
      ws.spare <- src
    end
  done

(* The entries of the initial refresh, once every item fits somewhere:
   [ws.order] gets all [n] items in selection order, each with its
   regret in [ws.key] (by item), and [n] is returned.  The regrets are
   then +0.0, -0.0, positive or +infinity, and [+. 0.0] gives -0.0 the
   key of +0.0, which the heap's order already treats as equal.  A NaN
   regret, from two -infinity desirabilities among the fitting
   knapsacks, breaks that order; the fitting knapsacks only shrink
   during a construction, so a NaN can first appear here, and then
   every entry goes on the heap in item order, as the heap alone would
   hold them, and 0 is returned (DESIGN.md D26). *)
let first_entries ws n =
  let regret = ws.regret and key = ws.key in
  let nan = ref false in
  for j = 0 to n - 1 do
    let r = regret.(j) in
    if Float.is_nan r then nan := true;
    key.(j) <- r +. 0.0
  done;
  if !nan then begin
    for j = 0 to n - 1 do
      heap_push ws j
    done;
    0
  end
  else begin
    if n > 0 then sort_by_key ws n;
    n
  end

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

   Selection takes the greatest entry under (regret desc, item asc):
   regret changes only on refresh, and every refresh that changes it
   adds a fresh entry, so the greatest valid entry is always the true
   maximum; stale entries (item already placed, or regret no longer
   current) are dropped as they come up.  The initial entries are
   sorted once ([first_entries]) and only the cascade's go on the lazy
   heap; the greatest entry is the greater of the sorted head and the
   heap top (DESIGN.md D26).

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
   change the result: the added entries are the same, and the order
   of selection depends only on the entry multiset (DESIGN.md D14).

   [primed]: [ws.i1], [ws.i2], [ws.regret] and [ws.no_fit] already hold
   this construction's initial refresh, which [cheapest_fits] computed
   for a [Cost] construction on the same scan as the minima. *)
let construct_into ~criterion ~primed (g : Gap.t) ws assignment =
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
  if not primed then begin
    ws.no_fit <- 0;
    for j = 0 to n - 1 do
      refresh g ws desir ~cascade:false j
    done
  end;
  let heads = if ws.no_fit = 0 then first_entries ws n else 0 in
  let first = ws.order and key = ws.key in
  let head = ref 0 in
  let unassigned = ref n in
  let stuck = ref false in
  while !unassigned > 0 && not !stuck do
    if ws.no_fit > 0 then stuck := true
    else begin
      let j = ref (-1) in
      while !j < 0 && (!head < heads || ws.heap_len > 0) do
        let cand = ref (-1) and r = ref 0.0 in
        if !head < heads
           && (ws.heap_len = 0
              ||
              let c = first.(!head) in
              key.(c) > ws.heap_r.(0) || (key.(c) = ws.heap_r.(0) && c < ws.heap_j.(0)))
        then begin
          cand := first.(!head);
          r := key.(!cand);
          incr head
        end
        else begin
          cand := ws.heap_j.(0);
          r := ws.heap_r.(0);
          heap_pop ws
        end;
        let c = !cand in
        if assignment.(c) = -1 && i1.(c) >= 0 && !r = regret.(c) then j := c
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

let construct ?(criterion = Cost) (g : Gap.t) =
  let ws = workspace ~m:g.Gap.m ~n:g.Gap.n in
  if construct_into ~criterion ~primed:false g ws ws.trial then Some ws.trial else None

type improver = [ `None | `Shift | `Shift_and_swap ]

(* In-place improver for the pooled path: [residual] must already be
   consistent with [a] (construction leaves it that way); the shift
   lists are [ws]'s, and only [`Shift_and_swap] reads [min_cost], which
   must then hold this instance's per-item minima. *)
let improve_in_place improve g ws ~min_cost a ~residual =
  let lists = ws.lists in
  match improve with
  | `None -> ()
  | `Shift -> Improve.shift_in_place g a ~residual ~lists
  | `Shift_and_swap -> Improve.shift_and_swap_in_place g a ~residual ~min_cost ~lists

(* [improve_in_place] after a construction under [criterion] that
   completed.  A [Cost] construction puts each item in its cheapest
   knapsack that fits at that moment, and residuals only fall after
   that (weights are positive), so no knapsack strictly cheaper than an
   item's own ever fits it again: a shift cannot move, and [`Shift] is
   skipped.  A swap can still improve, so [`Shift_and_swap] runs
   (DESIGN.md D35). *)
let improve_construction ~criterion improve g ws ~min_cost a ~residual =
  match (criterion, improve) with
  | Cost, `Shift -> ()
  | _ -> improve_in_place improve g ws ~min_cost a ~residual

(* The memo of cost-independent constructions is keyed on the
   instance's weight side ([Gap.weights_id]: Burkard's STEP-4 and
   STEP-6 instances share it) and on the capacity contents, which
   both constructions read and a caller may edit in place.  Any other
   key drops both entries. *)
let key_memo ws (g : Gap.t) =
  let same = ref (ws.memo_id = g.Gap.weights_id) in
  for i = 0 to g.Gap.m - 1 do
    if g.Gap.capacity.(i) <> ws.memo_capacity.(i) then same := false
  done;
  if not !same then begin
    ws.memo_id <- g.Gap.weights_id;
    Array.blit g.Gap.capacity 0 ws.memo_capacity 0 g.Gap.m;
    ws.memo_weight.state <- Unbuilt;
    ws.memo_per_capacity.state <- Unbuilt
  end

(* Construct into [ws.trial], leaving [ws.residual] consistent with it.
   A construction whose desirability never reads cost gives the same
   placement for every cost matrix, so it runs once per memo key and
   later calls copy its result (or its getting stuck). *)
let memoized ~criterion (g : Gap.t) ws saved =
  match saved.state with
  | Built ->
    Array.blit saved.placed 0 ws.trial 0 g.Gap.n;
    Array.blit saved.left 0 ws.residual 0 g.Gap.m;
    true
  | Stuck -> false
  | Unbuilt ->
    let ok = construct_into ~criterion ~primed:false g ws ws.trial in
    if ok then begin
      if Array.length saved.placed <> g.Gap.n then saved.placed <- Array.make g.Gap.n 0;
      if Array.length saved.left <> g.Gap.m then saved.left <- Array.make g.Gap.m 0.0;
      Array.blit ws.trial 0 saved.placed 0 g.Gap.n;
      Array.blit ws.residual 0 saved.left 0 g.Gap.m;
      saved.state <- Built
    end
    else saved.state <- Stuck;
    ok

let construct_memo (g : Gap.t) ws criterion ~primed =
  match criterion with
  | Weight -> memoized ~criterion g ws ws.memo_weight
  | Weight_per_capacity -> memoized ~criterion g ws ws.memo_per_capacity
  | Cost | Cost_times_weight -> construct_into ~criterion ~primed g ws ws.trial

(* The unconstrained optimum: [ws.min_cost] filled as
   [Improve.min_cost_into] fills it, and each item placed in [ws.out]
   at the first knapsack of its minimum, where the [Cost] refresh puts
   it.  True when every minimum is finite and every knapsack's load
   fits its capacity with a margin for rounding: then a [Cost]
   construction builds exactly this placement whatever its pop order,
   the improvers find every item at its minimum, and no later
   criterion can be strictly cheaper (DESIGN.md D22).  The loads go in
   [ws.residual], which every construction and fill resets first.

   [primed]: the same scan also does the initial refresh of a [Cost]
   construction, [refresh]'s top-2 among the knapsacks whose capacity,
   its starting residual, holds the item (DESIGN.md D26).  The minimum
   starts at knapsack 0's cost, so its strict test there is a no-op. *)
let cheapest_fits ~primed (g : Gap.t) ws =
  let { Gap.m; n; _ } = g in
  let cost = g.Gap.cost and weight = g.Gap.weight and load = ws.residual in
  let capacity = g.Gap.capacity in
  Array.fill load 0 m 0.0;
  ws.no_fit <- 0;
  let finite = ref true in
  for j = 0 to n - 1 do
    let base = j * m in
    let lo = ref cost.(base) and b = ref 0 in
    let f1 = ref infinity and f2 = ref infinity and b1 = ref (-1) and b2 = ref (-1) in
    for i = 0 to m - 1 do
      let c = cost.(base + i) in
      if c < !lo then begin
        lo := c;
        b := i
      end;
      if primed && weight.(base + i) <= capacity.(i) then begin
        if c < !f1 then begin
          f2 := !f1;
          b2 := !b1;
          f1 := c;
          b1 := i
        end
        else if c < !f2 then begin
          f2 := c;
          b2 := i
        end
      end
    done;
    if primed then begin
      ws.i1.(j) <- !b1;
      ws.i2.(j) <- !b2;
      ws.regret.(j) <- (if !f2 = infinity then infinity else !f2 -. !f1);
      if !b1 = -1 then ws.no_fit <- ws.no_fit + 1
    end;
    ws.min_cost.(j) <- !lo;
    if not (Float.abs !lo < infinity) then finite := false;
    ws.out.(j) <- !b;
    load.(!b) <- load.(!b) +. weight.(base + !b)
  done;
  let margin = 4.0 *. float_of_int (n + 1) *. epsilon_float in
  let fits = ref !finite in
  for i = 0 to m - 1 do
    let l = load.(i) and cap = g.Gap.capacity.(i) in
    if not (l +. (margin *. (cap +. l)) <= cap) then fits := false
  done;
  !fits

let leads_with_cost = function Cost :: _ -> true | _ -> false

(* The scan ends the solve when its cheapest placement fits and
   [criteria] starts with [Cost]. *)
let ends_at_scan ws criteria = ws.fitted && leads_with_cost criteria

(* Run the minima scan, record whether its placement fitted, and tell
   whether that placement, in [ws.out], is the answer. *)
let scan_ends ~primed (g : Gap.t) ws criteria =
  ws.fitted <- cheapest_fits ~primed g ws;
  ends_at_scan ws criteria

(* Every criterion's construction, improved in place; the cheapest
   (the first on ties) lands in [ws.out].  False if every construction
   got stuck.  [primed]: the first criterion is [Cost] and
   [cheapest_fits ~primed:true] did its initial refresh. *)
let construct_sequential (g : Gap.t) ws criteria improve ~primed =
  key_memo ws g;
  let n = g.Gap.n in
  let found = ref false in
  let best_cost = ref infinity in
  let todo = ref criteria in
  let primed = ref primed in
  while !todo != [] do
    match !todo with
    | [] -> ()
    | criterion :: rest ->
      todo := rest;
      let built = construct_memo g ws criterion ~primed:!primed in
      primed := false;
      if built then begin
        (* construction leaves ws.residual = capacity - loads(trial),
           so improvement runs in place with no setup *)
        improve_construction ~criterion improve g ws ~min_cost:ws.min_cost ws.trial
          ~residual:ws.residual;
        let c = Gap.cost_of g ws.trial in
        if (not !found) || c < !best_cost then begin
          found := true;
          best_cost := c;
          Array.blit ws.trial 0 ws.out 0 n
        end
      end
  done;
  !found

(* The workspaces and result slots of [legs] forked legs: leg 0 is
   [ws] itself, leg [k > 0] gets a workspace of its own the first time
   a fork needs it. *)
let ensure_legs (g : Gap.t) ws legs =
  let have = Array.length ws.legs in
  if have < legs - 1 then
    ws.legs <-
      Array.init (legs - 1) (fun k ->
          if k < have then ws.legs.(k) else workspace ~m:g.Gap.m ~n:g.Gap.n);
  if Array.length ws.leg_cost < legs then begin
    ws.leg_cost <- Array.make legs 0.0;
    ws.leg_built <- Bytes.make legs '\000'
  end

(* Leg [k]: criterion [k]'s construction in leg workspace [k],
   improved in place.  Whichever domain claims chunk [k] runs it, and
   it writes only its own workspace and result slot.  [scan]: leg 0
   first runs the minima scan, and builds nothing when the scan ends
   the solve; meanwhile [ws]'s minima are being written, so the other
   legs never read them, and a swap leg, the only reader, fills its
   own.  Otherwise the minima were scanned before the fork and every
   leg reads [ws]'s. *)
let run_leg (g : Gap.t) ws criteria improve ~primed ~scan k =
  let lw = if k = 0 then ws else ws.legs.(k - 1) in
  let built =
    if k = 0 && scan && scan_ends ~primed g ws criteria then false
    else begin
      key_memo lw g;
      let criterion = List.nth criteria k in
      let built = construct_memo g lw criterion ~primed:(primed && k = 0) in
      if built then begin
        let min_cost =
          match improve with
          | `Shift_and_swap when scan && k > 0 ->
            Improve.min_cost_into g lw.min_cost;
            lw.min_cost
          | _ -> ws.min_cost
        in
        improve_construction ~criterion improve g lw ~min_cost lw.trial ~residual:lw.residual;
        ws.leg_cost.(k) <- Gap.cost_of g lw.trial
      end;
      built
    end
  in
  Bytes.unsafe_set ws.leg_built k (if built then '\001' else '\000')

(* [construct_sequential]'s answer with the legs fork-joined on
   [pool], reduced as it reduces them: the first leg that built,
   replaced only by a strictly cheaper one (DESIGN.md D28).  With
   [scan], leg 0's scan may have ended the solve instead, its answer
   already in [ws.out]. *)
let construct_forked pool (g : Gap.t) ws criteria improve ~primed ~scan =
  let legs = List.length criteria in
  ensure_legs g ws legs;
  Dompool.parallel_for pool ~chunks:legs (run_leg g ws criteria improve ~primed ~scan);
  if scan && ends_at_scan ws criteria then true
  else begin
    let best = ref (-1) in
    for k = 0 to legs - 1 do
      if Bytes.unsafe_get ws.leg_built k = '\001'
         && (!best < 0 || ws.leg_cost.(k) < ws.leg_cost.(!best))
      then best := k
    done;
    if !best >= 0 then begin
      let winner = if !best = 0 then ws else ws.legs.(!best - 1) in
      Array.blit winner.trial 0 ws.out 0 g.Gap.n
    end;
    !best >= 0
  end

let solve ?ws ?(pool = Dompool.sequential) ?(criteria = all_criteria) ?(improve = `Shift_and_swap)
    g =
  Gap.verify_domain g;
  let ws = ensure_ws ws g in
  (* the scan fills the minima the swap improver's skip reads, and
     finds the early return, which [Cost] must lead for; with neither
     it is skipped.  A scan that ends in the early return wastes the
     shared initial refresh, so the scan does it only after a scan of
     this workspace that did not end there (DESIGN.md D26). *)
  let scan =
    match improve with
    | `None -> false
    | `Shift -> leads_with_cost criteria
    | `Shift_and_swap -> true
  in
  let primed = scan && (not ws.fitted) && leads_with_cost criteria in
  let forked = match criteria with _ :: _ :: _ -> Dompool.size pool > 1 | _ -> false in
  (* after a scan that did not fit the next one almost never fits, so
     a forked solve then scans inside leg 0, beside the other legs,
     instead of before the fork (DESIGN.md D35) *)
  let found =
    if forked && scan && not ws.fitted then
      construct_forked pool g ws criteria improve ~primed ~scan:true
    else if scan && scan_ends ~primed g ws criteria then true
    else if forked then construct_forked pool g ws criteria improve ~primed ~scan:false
    else construct_sequential g ws criteria improve ~primed
  in
  if found then Some ws.out else None

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

let solve_relaxed ?ws ?pool ?criteria ?(improve = `Shift_and_swap) g =
  Gap.verify_domain g;
  let ws = ensure_ws ws g in
  match solve ~ws ?pool ?criteria ~improve g with
  | Some a -> a
  | None ->
    relaxed_fill_into g ws ws.out;
    if Gap.feasible g ws.out then begin
      Improve.residual_into g ws.out ws.residual;
      improve_in_place improve g ws ~min_cost:ws.min_cost ws.out ~residual:ws.residual
    end;
    ws.out
