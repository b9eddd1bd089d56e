(* All passes index the flat item-major matrices directly: for a fixed
   item [j] the m knapsack entries sit at [j*m .. j*m+m-1], so the
   shift scan reads one contiguous unboxed block per item. *)

let min_cost_into (g : Gap.t) min_cost =
  let m = g.Gap.m and cost = g.Gap.cost in
  for j = 0 to g.Gap.n - 1 do
    let base = j * m in
    let lo = ref cost.(base) in
    for i = 1 to m - 1 do
      if cost.(base + i) < !lo then lo := cost.(base + i)
    done;
    min_cost.(j) <- !lo
  done

(* Item j's candidate list: the knapsacks strictly cheaper for j than
   its own, ascending, one byte each at [cand.(j*m ..)], [len.(j)] of
   them; -1 until built.  With more than 256 knapsacks nothing is kept
   and every visit scans.  [active] holds a shift-only improvement's
   items whose list is not empty, ascending. *)
type lists = { len : int array; cand : Bytes.t; active : int array }

let lists ~m ~n =
  {
    len = Array.make n (-1);
    cand = (if m <= 256 then Bytes.create (n * m) else Bytes.empty);
    active = Array.make n 0;
  }

(* [min_cost] is [min_cost_into]'s per-item minimum: an item already at
   its unconstrained cheapest knapsack has no strictly cheaper one, so
   the swap improver's shift never visits it.  A NaN cost is never at
   its minimum. *)
let off_min (g : Gap.t) assignment min_cost j =
  not (g.Gap.cost.((j * g.Gap.m) + assignment.(j)) <= min_cost.(j))

(* Build item [j]'s list, as its first full scan would; true if a
   knapsack is strictly cheaper than its own.  With no list kept the
   length stays -1, so every visit scans. *)
let build_list (g : Gap.t) assignment lists j =
  let m = g.Gap.m and cost = g.Gap.cost and cand = lists.cand in
  let keep = Bytes.length cand > 0 in
  let base = j * m in
  let from_cost = cost.(base + assignment.(j)) in
  let k = ref base in
  for i = 0 to m - 1 do
    if cost.(base + i) < from_cost then begin
      if keep then Bytes.set cand !k (Char.chr i);
      incr k
    end
  done;
  if keep then lists.len.(j) <- !k - base;
  !k > base

(* Move item [j] to the first of the cheapest fitting knapsacks
   strictly cheaper than its own, if there is one; true if a knapsack
   strictly cheaper than its own, after the move, remains.  A visit to
   an item with no built list is the full scan, which also records its
   list; costs do not change during an improvement, so later visits
   walk the list, in the same ascending order with the same test, and
   pick the knapsack the full scan would.  Every entry is strictly
   cheaper than the item's own knapsack, so the walk's running best
   starts at +infinity.  After a move to [i] the list becomes the old
   entries strictly cheaper than [i], a subset of it.  With no list
   kept the scan's [lo], the cheapest of those entries, answers the
   same question.  A NaN cost fails every [<] and enters no list; a
   NaN own cost leaves the list empty, as the full scan moves nothing
   then. *)
let shift_item (g : Gap.t) assignment residual lists j =
  let m = g.Gap.m in
  let cost = g.Gap.cost and weight = g.Gap.weight in
  let len = lists.len and cand = lists.cand in
  let keep = Bytes.length cand > 0 in
  let base = j * m in
  let from = assignment.(j) in
  let from_cost = cost.(base + from) in
  let best = ref from in
  let best_cost = ref infinity in
  let lo = ref infinity in
  let l = len.(j) in
  if l >= 0 then
    for t = base to base + l - 1 do
      let i = Char.code (Bytes.get cand t) in
      if weight.(base + i) <= residual.(i) && cost.(base + i) < !best_cost then begin
        best := i;
        best_cost := cost.(base + i)
      end
    done
  else begin
    let k = ref base in
    for i = 0 to m - 1 do
      let c = cost.(base + i) in
      if c < from_cost then begin
        if keep then begin
          Bytes.set cand !k (Char.chr i);
          incr k
        end;
        if c < !lo then lo := c;
        if weight.(base + i) <= residual.(i) && c < !best_cost then begin
          best := i;
          best_cost := c
        end
      end
    done;
    if keep then len.(j) <- !k - base
  end;
  if !best <> from then begin
    let i = !best in
    residual.(from) <- residual.(from) +. weight.(base + from);
    residual.(i) <- residual.(i) -. weight.(base + i);
    assignment.(j) <- i;
    let k = ref base in
    for t = base to base + len.(j) - 1 do
      let i' = Bytes.get cand t in
      if cost.(base + Char.code i') < !best_cost then begin
        Bytes.set cand !k i';
        incr k
      end
    done;
    if keep then len.(j) <- !k - base
  end;
  if keep then len.(j) > 0 else !lo < cost.(base + assignment.(j))

(* One pass over every item, skipping those at their minimum. *)
let shift_pass (g : Gap.t) assignment residual min_cost lists =
  let improved = ref false in
  for j = 0 to g.Gap.n - 1 do
    if off_min g assignment min_cost j then begin
      let from = assignment.(j) in
      ignore (shift_item g assignment residual lists j : bool);
      if assignment.(j) <> from then improved := true
    end
  done;
  !improved

(* A swap can move an item to a dearer knapsack, so the lists of both
   items it moves are dropped, to be rebuilt at their next visit. *)
let swap_pass (g : Gap.t) assignment residual lists =
  let m = g.Gap.m in
  let cost = g.Gap.cost and weight = g.Gap.weight in
  let improved = ref false in
  let n = g.Gap.n in
  for j1 = 0 to n - 1 do
    for j2 = j1 + 1 to n - 1 do
      let i1 = assignment.(j1) and i2 = assignment.(j2) in
      if i1 <> i2 then begin
        let b1 = j1 * m and b2 = j2 * m in
        let w11 = weight.(b1 + i1)
        and w22 = weight.(b2 + i2)
        and w12 = weight.(b1 + i2)
        and w21 = weight.(b2 + i1) in
        let fits1 = residual.(i1) +. w11 -. w21 >= 0.0 in
        let fits2 = residual.(i2) +. w22 -. w12 >= 0.0 in
        if fits1 && fits2 then begin
          let before = cost.(b1 + i1) +. cost.(b2 + i2) in
          let after = cost.(b1 + i2) +. cost.(b2 + i1) in
          if after < before then begin
            residual.(i1) <- residual.(i1) +. w11 -. w21;
            residual.(i2) <- residual.(i2) +. w22 -. w12;
            assignment.(j1) <- i2;
            assignment.(j2) <- i1;
            lists.len.(j1) <- -1;
            lists.len.(j2) <- -1;
            improved := true
          end
        end
      end
    done
  done;
  !improved

let residual_into (g : Gap.t) assignment residual =
  let m = g.Gap.m in
  Array.blit g.Gap.capacity 0 residual 0 m;
  Array.iteri
    (fun j i -> residual.(i) <- residual.(i) -. g.Gap.weight.((j * m) + i))
    assignment

let residual_of g assignment =
  let residual = Array.make g.Gap.m 0.0 in
  residual_into g assignment residual;
  residual

(* In-place variants: the pooled MTHG path already owns a residual
   array consistent with the assignment, so improvement runs without a
   single allocation.  Every call starts from lists of its own: they
   belong to one cost matrix and one starting assignment.

   Under shifts alone an item's list only shrinks: it changes only when
   the item moves, to the entries strictly cheaper than its new
   knapsack.  An item with an empty list never moves again, and the
   others move only when visited.  So every list is built first, and
   each pass visits, ascending, the items the previous one left with a
   non-empty list (at first, all that have one), and drops the ones
   whose list empties.  The visits it skips could move nothing, so the
   moves are a full pass's. *)
let shift_in_place g assignment ~residual ~lists =
  let active = lists.active in
  let len = ref 0 in
  for j = 0 to g.Gap.n - 1 do
    if build_list g assignment lists j then begin
      active.(!len) <- j;
      incr len
    end
  done;
  let moved = ref true in
  while !moved do
    moved := false;
    let kept = ref 0 in
    for t = 0 to !len - 1 do
      let j = active.(t) in
      let from = assignment.(j) in
      if shift_item g assignment residual lists j then begin
        active.(!kept) <- j;
        incr kept
      end;
      if assignment.(j) <> from then moved := true
    done;
    len := !kept
  done

(* A swap can move an item to a dearer knapsack and drops its list, so
   this one keeps full passes and skips by the minima. *)
let shift_and_swap_in_place g assignment ~residual ~min_cost ~lists =
  Array.fill lists.len 0 g.Gap.n (-1);
  let continue = ref true in
  while !continue do
    let s1 = shift_pass g assignment residual min_cost lists in
    let s2 = swap_pass g assignment residual lists in
    continue := s1 || s2
  done

let min_cost_of g =
  let min_cost = Array.make g.Gap.n 0.0 in
  min_cost_into g min_cost;
  min_cost

let shift g assignment =
  let a = Array.copy assignment in
  let residual = residual_of g a in
  shift_in_place g a ~residual ~lists:(lists ~m:g.Gap.m ~n:g.Gap.n);
  a

let shift_and_swap g assignment =
  let a = Array.copy assignment in
  let residual = residual_of g a in
  shift_and_swap_in_place g a ~residual ~min_cost:(min_cost_of g)
    ~lists:(lists ~m:g.Gap.m ~n:g.Gap.n);
  a
