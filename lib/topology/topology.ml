(* B and D are stored flat and row-major (entry (i1, i2) at
   i1 * M + i2) so hot loops can index one unboxed array: a float
   returned by a function called from another module is boxed, and
   the per-wire × per-partition kernels read B or D millions of times
   per iteration.  Everything derived from B and D is built here,
   once, when the topology is made: the kernels that read it run
   inside the solver's iterations. *)
type delay_order = { ids : int array; delays : float array }

type t = {
  names : string array;
  capacities : float array;
  b : float array;
  d : float array;
  bt : float array;           (* B transposed, row-major *)
  b_row_max : float array;    (* max_{i'} b(i, i'), for the omega bounds *)
  b_col_max : float array;    (* max_{i'} b(i', i) *)
  d_col_order : delay_order;  (* block a: partitions by D(i, a), descending *)
  d_row_order : delay_order;  (* block a: partitions by D(a, i), descending *)
}

let flatten mat =
  let m = Array.length mat in
  let flat = Array.make (m * m) 0.0 in
  Array.iteri (fun i row -> Array.blit row 0 flat (i * m) m) mat;
  flat

let unflatten m flat = Array.init m (fun i -> Array.sub flat (i * m) m)

let transpose m flat = Array.init (m * m) (fun r -> flat.(((r mod m) * m) + (r / m)))

(* Block [a] of a delay order ranks the partitions by [delay a i]
   descending, ties by partition id.  So for any budget, the
   partitions whose delay exceeds it are a prefix of the block. *)
let delay_order m delay =
  let ids = Array.make (m * m) 0 and delays = Array.make (m * m) 0.0 in
  for a = 0 to m - 1 do
    let block = Array.init m Fun.id in
    Array.stable_sort (fun i i' -> Float.compare (delay a i') (delay a i)) block;
    Array.iteri
      (fun p i ->
        ids.((a * m) + p) <- i;
        delays.((a * m) + p) <- delay a i)
      block
  done;
  { ids; delays }

let check_square what m expected =
  if Array.length m <> expected then
    invalid_arg (Printf.sprintf "Topology: %s has %d rows, expected %d" what (Array.length m) expected);
  Array.iteri
    (fun r row ->
      if Array.length row <> expected then
        invalid_arg (Printf.sprintf "Topology: %s row %d has %d cols, expected %d" what r (Array.length row) expected);
      Array.iteri
        (fun c x ->
          if x < 0.0 || Float.is_nan x then
            invalid_arg (Printf.sprintf "Topology: %s[%d][%d] = %g is negative or NaN" what r c x))
        row)
    m

let make ?names ~capacities ~b ~d () =
  let m = Array.length capacities in
  if m = 0 then invalid_arg "Topology: need at least one partition";
  Array.iteri
    (fun i c ->
      if c < 0.0 || Float.is_nan c then
        invalid_arg (Printf.sprintf "Topology: capacity %d = %g is negative or NaN" i c))
    capacities;
  check_square "B" b m;
  check_square "D" d m;
  let names =
    match names with
    | None -> Array.init m (fun i -> Printf.sprintf "p%d" i)
    | Some ns ->
      if Array.length ns <> m then invalid_arg "Topology: names length mismatch";
      Array.copy ns
  in
  let bf = flatten b and df = flatten d in
  let bt = transpose m bf in
  let row_max flat =
    Array.init m (fun i -> Array.fold_left Float.max 0.0 (Array.sub flat (i * m) m))
  in
  {
    names;
    capacities = Array.copy capacities;
    b = bf;
    d = df;
    bt;
    b_row_max = row_max bf;
    b_col_max = row_max bt;
    d_col_order = delay_order m (fun a i -> df.((i * m) + a));
    d_row_order = delay_order m (fun a i -> df.((a * m) + i));
  }

let m t = Array.length t.capacities

let capacity t i = t.capacities.(i)
let capacities t = Array.copy t.capacities
let total_capacity t = Array.fold_left ( +. ) 0.0 t.capacities
let b t i1 i2 = t.b.((i1 * m t) + i2)
let d t i1 i2 = t.d.((i1 * m t) + i2)
let b_flat t = t.b
let d_flat t = t.d
let bt_flat t = t.bt
let b_row_max t = t.b_row_max
let b_col_max t = t.b_col_max
let d_col_order t = t.d_col_order
let d_row_order t = t.d_row_order
let capacity_array t = t.capacities
let b_matrix t = unflatten (m t) t.b
let d_matrix t = unflatten (m t) t.d
let name t i = t.names.(i)
let max_b t = Array.fold_left Float.max 0.0 t.b_row_max
let max_d t = Array.fold_left Float.max 0.0 t.d

let symmetric m flat =
  let ok = ref true in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      if flat.((i * m) + j) <> flat.((j * m) + i) then ok := false
    done
  done;
  !ok

let b_symmetric t = symmetric (m t) t.b
let d_symmetric t = symmetric (m t) t.d

let with_zero_b t =
  let mm = m t in
  make ~names:t.names ~capacities:t.capacities
    ~b:(Array.make_matrix mm mm 0.0)
    ~d:(d_matrix t) ()

let scale_b t factor =
  if factor < 0.0 then invalid_arg "Topology.scale_b: negative factor";
  make ~names:t.names ~capacities:t.capacities
    ~b:(Array.map (Array.map (fun x -> x *. factor)) (b_matrix t))
    ~d:(d_matrix t) ()

let pp ppf t =
  Format.fprintf ppf "topology<%d partitions, capacity %g, max B %g, max D %g>"
    (m t) (total_capacity t) (max_b t) (max_d t)
