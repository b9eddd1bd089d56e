module Sm = Qbpart_netlist.Sparse_matrix

(* Struct-of-arrays CSR over constraint partners: component [j]'s
   partners are [pother.(poff.(j) .. poff.(j+1)-1)], sorted ascending,
   with both directed budgets in unboxed float arrays. *)
type csr = {
  poff : int array;    (* row offsets, length n+1 *)
  pother : int array;  (* partner ids, per-row ascending *)
  pbout : float array; (* D_C(j, other), +inf if unconstrained *)
  pbin : float array;  (* D_C(other, j), +inf if unconstrained *)
}

type t = {
  dc : Sm.t; (* directed budgets, default +inf *)
  mutable csr : csr option; (* invalidated on add *)
}

let create ~n =
  if n < 0 then invalid_arg "Constraints.create: negative n";
  { dc = Sm.create ~default:infinity ~rows:n ~cols:n (); csr = None }

let n t = Sm.rows t.dc

let add t j1 j2 budget =
  if j1 = j2 then invalid_arg "Constraints.add: self-pair";
  if Float.is_nan budget || budget < 0.0 then
    invalid_arg (Printf.sprintf "Constraints.add %d->%d: bad budget %g" j1 j2 budget);
  if budget < Sm.get t.dc j1 j2 then begin
    Sm.set t.dc j1 j2 budget;
    t.csr <- None
  end

let add_sym t j1 j2 budget =
  add t j1 j2 budget;
  add t j2 j1 budget

let budget t j1 j2 = Sm.get t.dc j1 j2
let mem t j1 j2 = Sm.mem t.dc j1 j2
let count t = Sm.nnz t.dc

let iter t f = Sm.iter t.dc f

let fold t ~init ~f = Sm.fold t.dc ~init ~f

let pair_count t =
  let seen = Hashtbl.create (count t) in
  iter t (fun j1 j2 _ ->
      let key = if j1 < j2 then (j1, j2) else (j2, j1) in
      Hashtbl.replace seen key ());
  Hashtbl.length seen

(* Counting pass + prefix sum + fill + per-row sort-and-merge.  Each
   directed budget j1->j2 contributes a slot to both endpoints; rows
   are then sorted by partner id and slots naming the same partner
   (one per direction) are merged with Float.min — the same result,
   in the same ascending-partner order, as the old per-component
   hashtable build, without allocating n hashtables. *)
let build_csr t =
  let n = n t in
  let cnt = Array.make (n + 1) 0 in
  iter t (fun j1 j2 _ ->
      cnt.(j1 + 1) <- cnt.(j1 + 1) + 1;
      cnt.(j2 + 1) <- cnt.(j2 + 1) + 1);
  for j = 1 to n do
    cnt.(j) <- cnt.(j) + cnt.(j - 1)
  done;
  let slots = cnt.(n) in
  let raw_other = Array.make slots 0 in
  let raw_out = Array.make slots infinity in
  let raw_in = Array.make slots infinity in
  let cur = Array.sub cnt 0 n in
  iter t (fun j1 j2 b ->
      let k1 = cur.(j1) in
      raw_other.(k1) <- j2;
      raw_out.(k1) <- b;
      raw_in.(k1) <- infinity;
      cur.(j1) <- k1 + 1;
      let k2 = cur.(j2) in
      raw_other.(k2) <- j1;
      raw_out.(k2) <- infinity;
      raw_in.(k2) <- b;
      cur.(j2) <- k2 + 1);
  (* Sort each row in place by partner id (insertion sort: rows are
     the paper's sparse critical-constraint sets, typically short). *)
  for j = 0 to n - 1 do
    let lo = cnt.(j) and hi = cur.(j) in
    for k = lo + 1 to hi - 1 do
      let o = raw_other.(k) and bo = raw_out.(k) and bi = raw_in.(k) in
      let p = ref (k - 1) in
      while !p >= lo && raw_other.(!p) > o do
        raw_other.(!p + 1) <- raw_other.(!p);
        raw_out.(!p + 1) <- raw_out.(!p);
        raw_in.(!p + 1) <- raw_in.(!p);
        decr p
      done;
      raw_other.(!p + 1) <- o;
      raw_out.(!p + 1) <- bo;
      raw_in.(!p + 1) <- bi
    done
  done;
  (* Merge duplicate partners (both directions present) and compact. *)
  let poff = Array.make (n + 1) 0 in
  let w = ref 0 in
  for j = 0 to n - 1 do
    poff.(j) <- !w;
    let lo = cnt.(j) and hi = cur.(j) in
    let k = ref lo in
    while !k < hi do
      let o = raw_other.(!k) in
      let bo = ref raw_out.(!k) and bi = ref raw_in.(!k) in
      incr k;
      while !k < hi && raw_other.(!k) = o do
        bo := Float.min !bo raw_out.(!k);
        bi := Float.min !bi raw_in.(!k);
        incr k
      done;
      raw_other.(!w) <- o;
      raw_out.(!w) <- !bo;
      raw_in.(!w) <- !bi;
      incr w
    done
  done;
  poff.(n) <- !w;
  {
    poff;
    pother = Array.sub raw_other 0 !w;
    pbout = Array.sub raw_out 0 !w;
    pbin = Array.sub raw_in 0 !w;
  }

let csr t =
  match t.csr with
  | Some csr -> csr
  | None ->
    let c = build_csr t in
    t.csr <- Some c;
    c

let prebuild t = ignore (csr t : csr)

let partner_offsets t = (csr t).poff
let partner_ids t = (csr t).pother
let partner_budget_out t = (csr t).pbout
let partner_budget_in t = (csr t).pbin

let partner_degree t j =
  let poff = (csr t).poff in
  poff.(j + 1) - poff.(j)

let max_partner_degree t =
  let poff = (csr t).poff in
  let best = ref 0 in
  for j = 0 to n t - 1 do
    best := max !best (poff.(j + 1) - poff.(j))
  done;
  !best

let copy t = { dc = Sm.copy t.dc; csr = None }
let empty t = count t = 0

let pp ppf t =
  Format.fprintf ppf "constraints<%d directed budgets over %d pairs, %d components>"
    (count t) (pair_count t) (n t)
