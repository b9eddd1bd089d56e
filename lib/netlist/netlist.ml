(* Component name -> id. *)
module Names = Hashtbl.Make (String)

type t = {
  components : Component.t array;
  wires : Wire.t array;                (* merged, sorted, each pair once *)
  (* Struct-of-arrays CSR adjacency: row [j] is
     [anbr.(xadj.(j) .. xadj.(j+1)-1)] / [awgt.(..)], neighbor-sorted.
     [awgt] is an unboxed float array; the layout is cache-linear so the
     solver inner loops never chase tuple pointers. *)
  xadj : int array;                    (* row offsets, length n+1 *)
  anbr : int array;                    (* neighbor ids, 2 * wire_count *)
  awgt : float array;                  (* wire weights, 2 * wire_count *)
  by_name : int Names.t;
  total_size : float;
  total_wire_weight : float;
}

(* Below this many wires the parallel CSR build is pure overhead. *)
let parallel_csr_cutoff = 65_536

(* Counting pass + exclusive prefix sum + in-order fill.  The merged
   wire array is sorted by [Wire.compare] (by u, then v, with u < v),
   so filling rows in wire order lands row [j]'s neighbors already
   ascending: first every x < j (from wires (x, j), ascending in x),
   then every y > j (from wires (j, y), ascending in y).  This matches
   the per-row [Array.sort] of the old boxed layout exactly — same
   neighbor order, hence bit-identical float summation downstream. *)
let build_csr_sequential n wires xadj anbr awgt =
  Array.iter
    (fun w ->
      xadj.(Wire.u w + 1) <- xadj.(Wire.u w + 1) + 1;
      xadj.(Wire.v w + 1) <- xadj.(Wire.v w + 1) + 1)
    wires;
  for j = 1 to n do
    xadj.(j) <- xadj.(j) + xadj.(j - 1)
  done;
  let cur = Array.sub xadj 0 n in
  Array.iter
    (fun w ->
      let u = Wire.u w and v = Wire.v w and x = Wire.weight w in
      anbr.(cur.(u)) <- v;
      awgt.(cur.(u)) <- x;
      cur.(u) <- cur.(u) + 1;
      anbr.(cur.(v)) <- u;
      awgt.(cur.(v)) <- x;
      cur.(v) <- cur.(v) + 1)
    wires

(* Deterministic parallel build: (A) each chunk of the wire array
   counts per-row degrees into its own array; (B) a sequential scan
   turns totals into [xadj] and rebases each chunk's counts into its
   per-row starting cursor; (C) chunks fill disjoint slots in
   parallel.  Every output position is a pure function of the wire
   array, so the result is identical to the sequential build for any
   pool size. *)
let build_csr_parallel pool n wires xadj anbr awgt =
  let m = Array.length wires in
  let chunks = min (Qbpart_pool.Dompool.size pool) ((m + parallel_csr_cutoff - 1) / parallel_csr_cutoff) in
  let chunks = max chunks 1 in
  let bounds =
    Array.init (chunks + 1) (fun c -> c * m / chunks)
  in
  let counts = Array.init chunks (fun _ -> Array.make n 0) in
  Qbpart_pool.Dompool.parallel_for pool ~chunks (fun c ->
      let cnt = counts.(c) in
      for k = bounds.(c) to bounds.(c + 1) - 1 do
        let w = wires.(k) in
        cnt.(Wire.u w) <- cnt.(Wire.u w) + 1;
        cnt.(Wire.v w) <- cnt.(Wire.v w) + 1
      done);
  (* Exclusive scan over rows, rebasing chunk counts into cursors. *)
  let running = ref 0 in
  for j = 0 to n - 1 do
    xadj.(j) <- !running;
    let row_start = ref !running in
    for c = 0 to chunks - 1 do
      let d = counts.(c).(j) in
      counts.(c).(j) <- !row_start;
      row_start := !row_start + d
    done;
    running := !row_start
  done;
  xadj.(n) <- !running;
  Qbpart_pool.Dompool.parallel_for pool ~chunks (fun c ->
      let cur = counts.(c) in
      for k = bounds.(c) to bounds.(c + 1) - 1 do
        let w = wires.(k) in
        let u = Wire.u w and v = Wire.v w and x = Wire.weight w in
        anbr.(cur.(u)) <- v;
        awgt.(cur.(u)) <- x;
        cur.(u) <- cur.(u) + 1;
        anbr.(cur.(v)) <- u;
        awgt.(cur.(v)) <- x;
        cur.(v) <- cur.(v) + 1
      done)

let build_csr ?pool n wires =
  let m = Array.length wires in
  let xadj = Array.make (n + 1) 0 in
  let anbr = Array.make (2 * m) 0 in
  let awgt = Array.make (2 * m) 0.0 in
  (match pool with
  | Some pool when Qbpart_pool.Dompool.size pool > 1 && m >= parallel_csr_cutoff ->
    build_csr_parallel pool n wires xadj anbr awgt
  | _ -> build_csr_sequential n wires xadj anbr awgt);
  (xadj, anbr, awgt)

(* Sum parallel wires and sort them by (u, v), in O(n + m).  Raw wire
   [k] joins [us.(k) < vs.(k)] with weight [ws.(k)].  Two stable
   counting passes, by v and then by u, starting from descending k,
   leave each (u, v) group contiguous and in descending k, and each
   group is summed from 0.0 in that order, reverse insertion order.
   The order is part of the interface (test_netlist pins it): a
   different order can change a weight's last bit. *)
let merge n us vs ws m =
  let start = Array.make (n + 1) 0 in
  let bucket keys src dst =
    Array.fill start 0 (n + 1) 0;
    for k = 0 to m - 1 do
      start.(keys.(k) + 1) <- start.(keys.(k) + 1) + 1
    done;
    for j = 1 to n do
      start.(j) <- start.(j) + start.(j - 1)
    done;
    for r = 0 to m - 1 do
      let k = src r in
      let key = keys.(k) in
      dst.(start.(key)) <- k;
      start.(key) <- start.(key) + 1
    done
  in
  let by_v = Array.make m 0 and by_uv = Array.make m 0 in
  bucket vs (fun r -> m - 1 - r) by_v;
  bucket us (fun r -> by_v.(r)) by_uv;
  let same r = us.(by_uv.(r)) = us.(by_uv.(r - 1)) && vs.(by_uv.(r)) = vs.(by_uv.(r - 1)) in
  let groups = ref 0 in
  for r = 0 to m - 1 do
    if r = 0 || not (same r) then incr groups
  done;
  let r = ref 0 in
  Array.init !groups (fun _ ->
      let k = by_uv.(!r) in
      let sum = ref (0.0 +. ws.(k)) in
      incr r;
      while !r < m && same !r do
        sum := !sum +. ws.(by_uv.(!r));
        incr r
      done;
      Wire.make us.(k) vs.(k) ~weight:!sum)

module Builder = struct
  type t = {
    mutable comps : Component.t array; (* the first [count] are live *)
    mutable count : int;
    mutable us : int array; (* wire k joins us.(k) < vs.(k) with weight ws.(k) *)
    mutable vs : int array;
    mutable ws : float array;
    mutable wcount : int;
    names : int Names.t; (* becomes the netlist's [by_name] *)
    mutable built : bool;
  }

  let create () =
    {
      comps = [||];
      count = 0;
      us = [||];
      vs = [||];
      ws = [||];
      wcount = 0;
      names = Names.create 64;
      built = false;
    }

  let check_open b what = if b.built then invalid_arg (what ^ ": builder already built")

  let grow a fill =
    let bigger = Array.make (max 64 (2 * Array.length a)) fill in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger

  let add_component b ?name ~size () =
    check_open b "Builder.add_component";
    let id = b.count in
    let name = match name with Some s -> s | None -> Printf.sprintf "c%d" id in
    if Names.mem b.names name then
      invalid_arg (Printf.sprintf "Builder.add_component: duplicate name %S" name);
    let c = Component.make ~id ~name ~size in
    if id = Array.length b.comps then b.comps <- grow b.comps c;
    b.comps.(id) <- c;
    b.count <- id + 1;
    Names.add b.names name id;
    id

  let find b name = Names.find_opt b.names name

  let add_wire b j1 j2 ?(weight = 1.0) () =
    check_open b "Builder.add_wire";
    if j1 < 0 || j1 >= b.count || j2 < 0 || j2 >= b.count then
      invalid_arg (Printf.sprintf "Builder.add_wire: component id out of range (%d, %d)" j1 j2);
    if j1 = j2 then invalid_arg (Printf.sprintf "Builder.add_wire: self-loop on component %d" j1);
    if weight <= 0.0 then
      invalid_arg
        (Printf.sprintf "Builder.add_wire %d-%d: weight must be > 0 (got %g)" j1 j2 weight);
    let k = b.wcount in
    if k = Array.length b.us then begin
      b.us <- grow b.us 0;
      b.vs <- grow b.vs 0;
      b.ws <- grow b.ws 0.0
    end;
    b.us.(k) <- min j1 j2;
    b.vs.(k) <- max j1 j2;
    b.ws.(k) <- weight;
    b.wcount <- k + 1

  let build ?pool b =
    b.built <- true;
    let components = Array.sub b.comps 0 b.count in
    let n = b.count in
    let wires = merge n b.us b.vs b.ws b.wcount in
    let xadj, anbr, awgt = build_csr ?pool n wires in
    let total_size = Array.fold_left (fun acc c -> acc +. Component.size c) 0.0 components in
    let total_wire_weight = Array.fold_left (fun acc w -> acc +. Wire.weight w) 0.0 wires in
    { components; wires; xadj; anbr; awgt; by_name = b.names; total_size; total_wire_weight }
end

let n t = Array.length t.components

(* The appended components have no wires, so the merged wire array and
   the CSR neighbor/weight arrays are shared unchanged; only the row
   offsets grow, by empty rows. *)
let append_isolated t extra =
  let n0 = n t and k = Array.length extra in
  if k = 0 then t
  else begin
    let by_name = Names.copy t.by_name in
    let added =
      Array.mapi
        (fun i (name, size) ->
          if Names.mem by_name name then
            invalid_arg (Printf.sprintf "Netlist.append_isolated: duplicate name %S" name);
          let c = Component.make ~id:(n0 + i) ~name ~size in
          Names.replace by_name name (n0 + i);
          c)
        extra
    in
    let xadj = Array.make (n0 + k + 1) t.xadj.(n0) in
    Array.blit t.xadj 0 xadj 0 (n0 + 1);
    {
      t with
      components = Array.append t.components added;
      xadj;
      by_name;
      total_size = Array.fold_left (fun acc c -> acc +. Component.size c) t.total_size added;
    }
  end

let component t j =
  if j < 0 || j >= n t then invalid_arg (Printf.sprintf "Netlist.component: id %d out of range" j);
  t.components.(j)

let components t = Array.copy t.components
let size t j = Component.size (component t j)
let sizes t = Array.map Component.size t.components
let total_size t = t.total_size
let find_by_name t name = Names.find_opt t.by_name name
let wires t = Array.copy t.wires
let iter_wires t f = Array.iter f t.wires
let fold_wires t ~init ~f = Array.fold_left f init t.wires
let wire_count t = Array.length t.wires
let total_wire_weight t = t.total_wire_weight

let adj_offsets t = t.xadj
let adj_targets t = t.anbr
let adj_weights t = t.awgt

let degree t j =
  if j < 0 || j >= n t then invalid_arg (Printf.sprintf "Netlist.degree: id %d out of range" j);
  t.xadj.(j + 1) - t.xadj.(j)

let adj_slot t j1 j2 =
  if j1 = j2 || j1 < 0 || j1 >= n t then -1
  else begin
    (* Binary search over the neighbor-sorted CSR row (a loop, not a
       local recursive function: that would allocate a closure per
       call, and selection kernels call this per candidate pair). *)
    let anbr = t.anbr in
    let lo = ref t.xadj.(j1) and hi = ref t.xadj.(j1 + 1) and found = ref (-1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let nb = anbr.(mid) in
      if nb = j2 then begin
        found := mid;
        lo := !hi
      end
      else if nb < j2 then lo := mid + 1
      else hi := mid
    done;
    !found
  end

let connection t j1 j2 =
  let k = adj_slot t j1 j2 in
  if k < 0 then 0.0 else t.awgt.(k)

let equal a b =
  Array.length a.components = Array.length b.components
  && Array.for_all2 Component.equal a.components b.components
  && Array.length a.wires = Array.length b.wires
  && Array.for_all2 Wire.equal a.wires b.wires

let pp ppf t =
  Format.fprintf ppf "netlist<%d components, %d wire pairs, %g interconnections, size %g>"
    (n t) (wire_count t) t.total_wire_weight t.total_size
