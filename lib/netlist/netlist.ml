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
  by_name : (string, int) Hashtbl.t;
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

let merge_wires n wire_list =
  (* Sum weights of parallel wires; key = u * n + v with u < v. *)
  let tbl = Hashtbl.create (List.length wire_list) in
  List.iter
    (fun w ->
      let u = Wire.u w and v = Wire.v w in
      if u < 0 || v >= n then
        invalid_arg (Printf.sprintf "Netlist: wire %d-%d references unknown component" u v);
      let key = (u * n) + v in
      let prev = match Hashtbl.find_opt tbl key with Some x -> x | None -> 0.0 in
      Hashtbl.replace tbl key (prev +. Wire.weight w))
    wire_list;
  let merged =
    Hashtbl.fold (fun key x acc -> Wire.make (key / n) (key mod n) ~weight:x :: acc) tbl []
  in
  let arr = Array.of_list merged in
  Array.sort Wire.compare arr;
  arr

let make_opt pool ~components ~wires =
  let components = Array.of_list components in
  let n = Array.length components in
  Array.iteri
    (fun idx c ->
      if Component.id c <> idx then
        invalid_arg
          (Printf.sprintf "Netlist.make: component %S has id %d, expected %d"
             (Component.name c) (Component.id c) idx))
    components;
  let by_name = Hashtbl.create n in
  Array.iter
    (fun c ->
      let name = Component.name c in
      if Hashtbl.mem by_name name then
        invalid_arg (Printf.sprintf "Netlist.make: duplicate component name %S" name);
      Hashtbl.replace by_name name (Component.id c))
    components;
  let wires = merge_wires n wires in
  let xadj, anbr, awgt = build_csr ?pool n wires in
  let total_size = Array.fold_left (fun acc c -> acc +. Component.size c) 0.0 components in
  let total_wire_weight = Array.fold_left (fun acc w -> acc +. Wire.weight w) 0.0 wires in
  { components; wires; xadj; anbr; awgt; by_name; total_size; total_wire_weight }

let make ~components ~wires = make_opt None ~components ~wires
let make_parallel ~pool ~components ~wires = make_opt (Some pool) ~components ~wires

module Builder = struct
  type t = {
    mutable comps : Component.t list; (* reversed *)
    mutable count : int;
    mutable wire_list : Wire.t list;
    names : (string, unit) Hashtbl.t;
  }

  let create () = { comps = []; count = 0; wire_list = []; names = Hashtbl.create 64 }

  let add_component b ?name ~size () =
    let id = b.count in
    let name = match name with Some s -> s | None -> Printf.sprintf "c%d" id in
    if Hashtbl.mem b.names name then
      invalid_arg (Printf.sprintf "Builder.add_component: duplicate name %S" name);
    Hashtbl.replace b.names name ();
    b.comps <- Component.make ~id ~name ~size :: b.comps;
    b.count <- id + 1;
    id

  let add_wire b j1 j2 ?(weight = 1.0) () =
    if j1 < 0 || j1 >= b.count || j2 < 0 || j2 >= b.count then
      invalid_arg (Printf.sprintf "Builder.add_wire: component id out of range (%d, %d)" j1 j2);
    b.wire_list <- Wire.make j1 j2 ~weight :: b.wire_list

  let build ?pool b = make_opt pool ~components:(List.rev b.comps) ~wires:b.wire_list
end

let n t = Array.length t.components

(* The appended components have no wires, so the merged wire array and
   the CSR neighbor/weight arrays are shared unchanged; only the row
   offsets grow, by empty rows. *)
let append_isolated t extra =
  let n0 = n t and k = Array.length extra in
  if k = 0 then t
  else begin
    let by_name = Hashtbl.copy t.by_name in
    let added =
      Array.mapi
        (fun i (name, size) ->
          if Hashtbl.mem by_name name then
            invalid_arg (Printf.sprintf "Netlist.append_isolated: duplicate name %S" name);
          let c = Component.make ~id:(n0 + i) ~name ~size in
          Hashtbl.replace by_name name (n0 + i);
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
let find_by_name t name = Hashtbl.find_opt t.by_name name
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

let connection_matrix t =
  let m = Sparse_matrix.create ~rows:(n t) ~cols:(n t) () in
  Array.iter
    (fun w ->
      Sparse_matrix.set m (Wire.u w) (Wire.v w) (Wire.weight w);
      Sparse_matrix.set m (Wire.v w) (Wire.u w) (Wire.weight w))
    t.wires;
  m

let equal a b =
  Array.length a.components = Array.length b.components
  && Array.for_all2 Component.equal a.components b.components
  && Array.length a.wires = Array.length b.wires
  && Array.for_all2 Wire.equal a.wires b.wires

let pp ppf t =
  Format.fprintf ppf "netlist<%d components, %d wire pairs, %g interconnections, size %g>"
    (n t) (wire_count t) t.total_wire_weight t.total_size
