(* Struct-of-arrays CSR over constraint partners: component [j]'s
   partners are [pother.(poff.(j) .. poff.(j+1)-1)], sorted ascending,
   with both directed budgets in unboxed float arrays. *)
type t = {
  n : int;
  count : int;         (* finite out-budgets: the directed budget count *)
  poff : int array;    (* row offsets, length n+1 *)
  pother : int array;  (* partner ids, per-row ascending *)
  pbout : float array; (* D_C(j, other), +inf if unconstrained *)
  pbin : float array;  (* D_C(other, j), +inf if unconstrained *)
}

module Builder = struct
  type t = {
    n : int;
    mutable src : int array; (* raw budget k is src.(k) -> dst.(k) within bud.(k) *)
    mutable dst : int array;
    mutable bud : float array;
    mutable len : int;
    mutable built : bool;
  }

  let create ~n =
    if n < 0 then invalid_arg "Constraints.Builder.create: negative n";
    { n; src = [||]; dst = [||]; bud = [||]; len = 0; built = false }

  let grow a fill =
    let bigger = Array.make (max 64 (2 * Array.length a)) fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger

  let add b j1 j2 budget =
    if b.built then invalid_arg "Constraints.add: builder already built";
    if j1 = j2 then invalid_arg "Constraints.add: self-pair";
    if Float.is_nan budget || budget < 0.0 then
      invalid_arg (Printf.sprintf "Constraints.add %d->%d: bad budget %g" j1 j2 budget);
    if j1 < 0 || j1 >= b.n || j2 < 0 || j2 >= b.n then
      invalid_arg
        (Printf.sprintf "Constraints.add: index (%d,%d) out of range for %d components" j1 j2
           b.n);
    if budget < infinity then begin
      let k = b.len in
      if k = Array.length b.src then begin
        b.src <- grow b.src 0;
        b.dst <- grow b.dst 0;
        b.bud <- grow b.bud 0.0
      end;
      b.src.(k) <- j1;
      b.dst.(k) <- j2;
      b.bud.(k) <- budget;
      b.len <- k + 1
    end

  let add_sym b j1 j2 budget =
    add b j1 j2 budget;
    add b j2 j1 budget

  (* A row longer than this is sorted by a merge sort, so that no input
     makes the insertion sort of a row quadratic. *)
  let short_row = 64

  let sort_long other slot lo hi =
    let row = Array.init (hi - lo) (fun i -> (other.(lo + i), slot.(lo + i))) in
    Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) row;
    Array.iteri
      (fun i (o, s) ->
        other.(lo + i) <- o;
        slot.(lo + i) <- s)
      row

  (* Raw budget k is two slots: 2k in row src.(k) naming dst.(k) (an
     out-budget) and 2k+1 in row dst.(k) naming src.(k) (an
     in-budget).  One counting pass files the slots by row in
     insertion order, the stable per-row sort makes each (row,
     partner) group contiguous, still in insertion order, and the merge
     keeps per direction the first budget, replaced only by a strictly
     smaller one: the rule [add] has always had (so of [0.] and [-0.]
     the first added wins). *)
  let build b =
    b.built <- true;
    let n = b.n and m = b.len in
    let src = b.src and dst = b.dst and bud = b.bud in
    let off = Array.make (n + 1) 0 in
    for k = 0 to m - 1 do
      off.(src.(k) + 1) <- off.(src.(k) + 1) + 1;
      off.(dst.(k) + 1) <- off.(dst.(k) + 1) + 1
    done;
    for j = 1 to n do
      off.(j) <- off.(j) + off.(j - 1)
    done;
    let cur = Array.sub off 0 n in
    let other = Array.make (2 * m) 0 and slot = Array.make (2 * m) 0 in
    for k = 0 to m - 1 do
      let j = src.(k) in
      other.(cur.(j)) <- dst.(k);
      slot.(cur.(j)) <- 2 * k;
      cur.(j) <- cur.(j) + 1;
      let j = dst.(k) in
      other.(cur.(j)) <- src.(k);
      slot.(cur.(j)) <- (2 * k) + 1;
      cur.(j) <- cur.(j) + 1
    done;
    let pairs = ref 0 in
    for j = 0 to n - 1 do
      let lo = off.(j) and hi = off.(j + 1) in
      if hi - lo > short_row then sort_long other slot lo hi
      else
        for i = lo + 1 to hi - 1 do
          let o = other.(i) and s = slot.(i) in
          let p = ref (i - 1) in
          while !p >= lo && other.(!p) > o do
            other.(!p + 1) <- other.(!p);
            slot.(!p + 1) <- slot.(!p);
            decr p
          done;
          other.(!p + 1) <- o;
          slot.(!p + 1) <- s
        done;
      for i = lo to hi - 1 do
        if i = lo || other.(i) <> other.(i - 1) then incr pairs
      done
    done;
    let poff = Array.make (n + 1) 0 and pother = Array.make !pairs 0 in
    let pbout = Array.make !pairs 0.0 and pbin = Array.make !pairs 0.0 in
    let w = ref 0 and count = ref 0 in
    for j = 0 to n - 1 do
      poff.(j) <- !w;
      let i = ref off.(j) and hi = off.(j + 1) in
      while !i < hi do
        let o = other.(!i) in
        let out = ref infinity and inb = ref infinity in
        while !i < hi && other.(!i) = o do
          let s = slot.(!i) in
          let x = bud.(s lsr 1) in
          if s land 1 = 0 then (if x < !out then out := x) else if x < !inb then inb := x;
          incr i
        done;
        pother.(!w) <- o;
        pbout.(!w) <- !out;
        pbin.(!w) <- !inb;
        if !out < infinity then incr count;
        incr w
      done
    done;
    poff.(n) <- !w;
    { n; count = !count; poff; pother; pbout; pbin }
end

let none ~n = Builder.build (Builder.create ~n)
let n t = t.n

(* Binary search over the partner-sorted row, as [Netlist.adj_slot]. *)
let slot t what j1 j2 =
  if j1 < 0 || j1 >= t.n || j2 < 0 || j2 >= t.n then
    invalid_arg
      (Printf.sprintf "Constraints.%s: index (%d,%d) out of range for %d components" what j1 j2
         t.n);
  let lo = ref t.poff.(j1) and hi = ref t.poff.(j1 + 1) and found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let o = t.pother.(mid) in
    if o = j2 then begin
      found := mid;
      lo := !hi
    end
    else if o < j2 then lo := mid + 1
    else hi := mid
  done;
  !found

let budget t j1 j2 =
  let k = slot t "budget" j1 j2 in
  if k < 0 then infinity else t.pbout.(k)

let mem t j1 j2 =
  let k = slot t "mem" j1 j2 in
  k >= 0 && t.pbout.(k) < infinity

let count t = t.count
let pair_count t = Array.length t.pother / 2
let empty t = t.count = 0

let iter t f =
  for j = 0 to t.n - 1 do
    for k = t.poff.(j) to t.poff.(j + 1) - 1 do
      let b = t.pbout.(k) in
      if b < infinity then f j t.pother.(k) b
    done
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun j1 j2 b -> acc := f !acc j1 j2 b);
  !acc

let equal a b =
  a.n = b.n && a.count = b.count && a.poff = b.poff && a.pother = b.pother
  && a.pbout = b.pbout && a.pbin = b.pbin

let partner_offsets t = t.poff
let partner_ids t = t.pother
let partner_budget_out t = t.pbout
let partner_budget_in t = t.pbin
let partner_degree t j = t.poff.(j + 1) - t.poff.(j)
