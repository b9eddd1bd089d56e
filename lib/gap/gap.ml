(* Flat, unboxed storage.  The cost and weight matrices live in single
   [float array]s laid out item-major — entry (i, j) at index
   [j*m + i] — so that (a) the per-item knapsack scans that dominate
   MTHG, the improvement passes and the Lagrangian bound walk [m]
   consecutive unboxed floats instead of gathering one element from
   each of [m] boxed rows, and (b) the layout coincides exactly with
   the solver's eta vector (index r = i + j·M), letting the Burkard
   loop alias its eta/h buffers as GAP cost matrices with no reshape
   at all. *)

type t = {
  m : int;
  n : int;
  cost : float array;
  weight : float array;
  capacity : float array;
  owner : int option;
  by_weight : int array;
  order_of : int array;
}

let index t ~i ~j = (j * t.m) + i
let cost_at t ~i ~j = t.cost.((j * t.m) + i)
let weight_at t ~i ~j = t.weight.((j * t.m) + i)

(* The per-knapsack weight orders behind MTHG's refresh cascade: item
   ids sorted by w_ij descending (ties by id), one block of [n] per
   distinct weight column, with [order_of.(i)] the offset of knapsack
   [i]'s block.  Knapsacks whose weight columns are identical share
   one block — under w_ij = s_j every knapsack shares the first.
   Built eagerly by every constructor, never lazily: race legs read
   [fan_out] views of one instance from several domains at once. *)
let weight_orders ~m ~n weight =
  let same_column i i' =
    let rec go j = j >= n || (weight.((j * m) + i) = weight.((j * m) + i') && go (j + 1)) in
    go 0
  in
  (* [reps]: (first knapsack, block offset) of each distinct column *)
  let reps = ref [] in
  let order_of =
    Array.init m (fun i ->
        match List.find_opt (fun (rep, _) -> same_column rep i) !reps with
        | Some (_, off) -> off
        | None ->
          let off = List.length !reps * n in
          reps := (i, off) :: !reps;
          off)
  in
  let by_weight = Array.make (List.length !reps * n) 0 in
  List.iter
    (fun (i, off) ->
      let block = Array.init n Fun.id in
      Array.stable_sort
        (fun a b -> Float.compare weight.((b * m) + i) weight.((a * m) + i))
        block;
      Array.blit block 0 by_weight off n)
    !reps;
  (by_weight, order_of)

let check_matrix what m n mat =
  if Array.length mat <> m then
    invalid_arg (Printf.sprintf "Gap.make: %s has %d rows, expected %d" what (Array.length mat) m);
  Array.iteri
    (fun i row ->
      if Array.length row <> n then
        invalid_arg (Printf.sprintf "Gap.make: %s row %d has %d cols, expected %d" what i (Array.length row) n);
      Array.iteri
        (fun j x ->
          if Float.is_nan x then
            invalid_arg (Printf.sprintf "Gap.make: %s[%d][%d] is NaN" what i j))
        row)
    mat

(* Flatten a validated [m][n] boxed matrix into the item-major layout. *)
let flatten m n mat =
  let flat = Array.make (m * n) 0.0 in
  for i = 0 to m - 1 do
    let row = mat.(i) in
    for j = 0 to n - 1 do
      flat.((j * m) + i) <- row.(j)
    done
  done;
  flat

let make ~cost ~weight ~capacity =
  let m = Array.length capacity in
  if m = 0 then invalid_arg "Gap.make: no knapsacks";
  let n = if Array.length cost = 0 then 0 else Array.length cost.(0) in
  check_matrix "cost" m n cost;
  check_matrix "weight" m n weight;
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j w ->
          if w <= 0.0 then
            invalid_arg (Printf.sprintf "Gap.make: weight[%d][%d] = %g must be > 0" i j w))
        row)
    weight;
  Array.iteri
    (fun i c ->
      if c < 0.0 || Float.is_nan c then
        invalid_arg (Printf.sprintf "Gap.make: capacity %d = %g" i c))
    capacity;
  let weight = flatten m n weight in
  let by_weight, order_of = weight_orders ~m ~n weight in
  {
    m;
    n;
    cost = flatten m n cost;
    weight;
    capacity = Array.copy capacity;
    owner = None;
    by_weight;
    order_of;
  }

let uniform_weights ~sizes ~m =
  let n = Array.length sizes in
  let w = Array.make (m * n) 0.0 in
  for j = 0 to n - 1 do
    Array.fill w (j * m) m sizes.(j)
  done;
  w

let make_uniform ~cost ~sizes ~capacity =
  let m = Array.length capacity in
  if m = 0 then invalid_arg "Gap.make: no knapsacks";
  let n = if Array.length cost = 0 then 0 else Array.length cost.(0) in
  if Array.length sizes <> n then
    invalid_arg (Printf.sprintf "Gap.make: sizes has %d entries, expected %d" (Array.length sizes) n);
  check_matrix "cost" m n cost;
  Array.iteri
    (fun j s ->
      if s <= 0.0 || Float.is_nan s then
        invalid_arg (Printf.sprintf "Gap.make: weight[*][%d] = %g must be > 0" j s))
    sizes;
  Array.iteri
    (fun i c ->
      if c < 0.0 || Float.is_nan c then
        invalid_arg (Printf.sprintf "Gap.make: capacity %d = %g" i c))
    capacity;
  let weight = uniform_weights ~sizes ~m in
  let by_weight, order_of = weight_orders ~m ~n weight in
  {
    m;
    n;
    cost = flatten m n cost;
    weight;
    capacity = Array.copy capacity;
    owner = None;
    by_weight;
    order_of;
  }

(* Zero-copy constructor for solver hot loops: the caller keeps
   ownership of the flat arrays (and the invariants).  [make]'s
   per-call copy + NaN scan of two m×n matrices dominated the
   STEP-4/6 setup cost, and because the item-major layout equals the
   eta vector's, the Burkard loop aliases its eta and h buffers
   directly as the cost matrix — the "refresh" of the GAP costs
   between iterations disappears entirely. *)
let borrow ~cost ~weight ~capacity ~n =
  let m = Array.length capacity in
  if m = 0 then invalid_arg "Gap.borrow: no knapsacks";
  if n < 0 then invalid_arg "Gap.borrow: negative item count";
  if Array.length cost <> m * n || Array.length weight <> m * n then
    invalid_arg "Gap.borrow: cost/weight must be flat item-major arrays of length m*n";
  let by_weight, order_of = weight_orders ~m ~n weight in
  { m; n; cost; weight; capacity; owner = Some (Domain.self () :> int); by_weight; order_of }

let refresh_cost t src =
  if Array.length src <> t.m * t.n then invalid_arg "Gap.refresh_cost: wrong length";
  Array.blit src 0 t.cost 0 (t.m * t.n)

(* Release the domain guard for a fork-join fan-out: a six-word record
   copy aliasing the same buffers with [owner = None].  Correct only
   under the caller's discipline — borrower blocked, legs read-only —
   which [Race.race] provides. *)
let fan_out t = { t with owner = None }

let verify_domain t =
  match t.owner with
  | None -> ()
  | Some d ->
    let self = (Domain.self () :> int) in
    if d <> self then
      invalid_arg
        (Printf.sprintf
           "Gap: instance borrowed on domain %d solved from domain %d — borrowed \
            buffers must never cross domains"
           d self)

let cost_of t a =
  let m = t.m and cost = t.cost in
  let total = ref 0.0 in
  for j = 0 to Array.length a - 1 do
    total := !total +. cost.((j * m) + a.(j))
  done;
  !total

let loads t a =
  let m = t.m in
  let loads = Array.make m 0.0 in
  Array.iteri (fun j i -> loads.(i) <- loads.(i) +. t.weight.((j * m) + i)) a;
  loads

let feasible t a =
  Array.length a = t.n
  && Array.for_all (fun i -> i >= 0 && i < t.m) a
  &&
  let loads = loads t a in
  Array.for_all2 (fun load cap -> load <= cap) loads t.capacity

let excess t a =
  let loads = loads t a in
  let total = ref 0.0 in
  Array.iteri (fun i load -> total := !total +. Float.max 0.0 (load -. t.capacity.(i))) loads;
  !total
