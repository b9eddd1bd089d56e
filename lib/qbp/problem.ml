module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Evaluate = Qbpart_partition.Evaluate

type integrality = {
  integral : bool;
  max_abs_p : float;
  max_wire_sum : float;
  max_b : float;
  max_partners : int;
}

type t = {
  netlist : Netlist.t;
  topology : Topology.t;
  constraints : Constraints.t;
  p : float array array option;
  alpha : float;
  beta : float;
  integrality : integrality;
}

(* One pass over alpha*P, beta*B, the adjacency weights and the partner
   offsets: the values [normalize] stores, so the summary describes the
   surface every Qmatrix of this problem prices (DESIGN.md D25).  A
   -0.0 in alpha*P is not integral here: the kernel starts an entry
   from it and can return -0.0 where an exact patch returns +0.0.
   Plain loops on unboxed locals, so the pass allocates nothing. *)
let summarize ~alpha ~beta p netlist topology constraints =
  (* exact for |v| < 2^62, and a larger value fails the 2^52 bound
     anyway; infinities and NaN are not integers *)
  let is_integer v = Float.of_int (Float.to_int v) = v in
  let integral = ref true and max_abs_p = ref 0.0 in
  (match p with
  | None -> ()
  | Some p ->
    for i = 0 to Array.length p - 1 do
      let row = p.(i) in
      for j = 0 to Array.length row - 1 do
        let v = alpha *. row.(j) in
        if not (is_integer v) || (v = 0.0 && Float.sign_bit v) then integral := false;
        if Float.abs v > !max_abs_p then max_abs_p := Float.abs v
      done
    done);
  let bf = Topology.b_flat topology in
  let max_b = ref 0.0 in
  for r = 0 to Array.length bf - 1 do
    let v = beta *. bf.(r) in
    if not (is_integer v) then integral := false;
    if v > !max_b then max_b := v
  done;
  let xadj = Netlist.adj_offsets netlist and awgt = Netlist.adj_weights netlist in
  let poff = Constraints.partner_offsets constraints in
  let max_wire_sum = ref 0.0 and max_partners = ref 0 in
  for j = 0 to Netlist.n netlist - 1 do
    let sum = ref 0.0 in
    for k = xadj.(j) to xadj.(j + 1) - 1 do
      if not (is_integer awgt.(k)) then integral := false;
      sum := !sum +. Float.abs awgt.(k)
    done;
    if !sum > !max_wire_sum then max_wire_sum := !sum;
    if poff.(j + 1) - poff.(j) > !max_partners then max_partners := poff.(j + 1) - poff.(j)
  done;
  {
    integral = !integral;
    max_abs_p = !max_abs_p;
    max_wire_sum = !max_wire_sum;
    max_b = !max_b;
    max_partners = !max_partners;
  }

let make ?(alpha = 1.0) ?(beta = 1.0) ?p ?constraints netlist topology =
  let n = Netlist.n netlist and m = Topology.m topology in
  if alpha < 0.0 || beta < 0.0 || Float.is_nan alpha || Float.is_nan beta then
    invalid_arg "Problem.make: scaling factors must be non-negative";
  (match p with
  | None -> ()
  | Some p ->
    if Array.length p <> m then
      invalid_arg (Printf.sprintf "Problem.make: P has %d rows, expected M=%d" (Array.length p) m);
    Array.iteri
      (fun i row ->
        if Array.length row <> n then
          invalid_arg
            (Printf.sprintf "Problem.make: P row %d has %d cols, expected N=%d" i
               (Array.length row) n);
        Array.iter (fun x -> if Float.is_nan x then invalid_arg "Problem.make: NaN in P") row)
      p);
  let constraints =
    match constraints with
    | Some c ->
      if Constraints.n c <> n then
        invalid_arg
          (Printf.sprintf "Problem.make: constraints built for %d components, netlist has %d"
             (Constraints.n c) n);
      c
    | None -> Constraints.none ~n
  in
  let p = Option.map (Array.map Array.copy) p in
  let integrality = summarize ~alpha ~beta p netlist topology constraints in
  { netlist; topology; constraints; p; alpha; beta; integrality }

let n t = Netlist.n t.netlist
let m t = Topology.m t.topology

let is_normalized t = t.alpha = 1.0 && t.beta = 1.0

(* [integrality] carries over: [make] summarized alpha*P and beta*B,
   the very values stored here *)
let normalize t =
  if is_normalized t then t
  else
    let p = Option.map (Array.map (Array.map (fun x -> t.alpha *. x))) t.p in
    let topology = Topology.scale_b t.topology t.beta in
    { t with topology; p; alpha = 1.0; beta = 1.0 }

(* Every value a candidate row takes is an integer of magnitude at most
   |p| + (sum of |w|) * max b + 2 * partners * penalty: under 2^52 each
   product, partial sum and patched value is exact, so a row's sum does
   not depend on its order (DESIGN.md D25). *)
let exact_surface t ~penalty =
  let s = t.integrality in
  s.integral && Float.is_integer penalty
  && s.max_abs_p +. (s.max_wire_sum *. s.max_b)
     +. (2.0 *. float_of_int s.max_partners *. penalty)
     <= 0x1p52

let p_entry t ~i ~j = match t.p with None -> 0.0 | Some p -> t.alpha *. p.(i).(j)

let objective t a =
  Evaluate.objective ~alpha:t.alpha ~beta:t.beta ?p:t.p t.netlist t.topology a

(* Exact equation-(1) change when component [j] moves to partition [i]:
   the P-term difference plus [j]'s wires re-evaluated with the
   evaluator's orientation (wires are stored once with endpoints
   u < v and charged b(a(u), a(v))).  O(deg(j)) instead of the full
   O(wires) recompute; exact, not an approximation. *)
let delta_objective t a ~j ~i =
  let from = a.(j) in
  if i = from then 0.0
  else begin
    let acc = ref (p_entry t ~i ~j -. p_entry t ~i:from ~j) in
    let m = m t in
    let bf = Topology.b_flat t.topology in
    let xadj = Netlist.adj_offsets t.netlist in
    let anbr = Netlist.adj_targets t.netlist in
    let awgt = Netlist.adj_weights t.netlist in
    for k = xadj.(j) to xadj.(j + 1) - 1 do
      let j' = anbr.(k) and w = awgt.(k) in
      let at' = a.(j') in
      let d =
        if j < j' then bf.((i * m) + at') -. bf.((from * m) + at')
        else bf.((at' * m) + i) -. bf.((at' * m) + from)
      in
      acc := !acc +. (t.beta *. w *. d)
    done;
    !acc
  end

let penalized_objective t ~penalty a =
  Evaluate.penalized ~alpha:t.alpha ~beta:t.beta ?p:t.p ~penalty t.netlist t.topology
    t.constraints a

let capacity_feasible t a = Evaluate.capacity_feasible t.netlist t.topology a
let timing_feasible t a = Qbpart_timing.Check.feasible t.constraints t.topology ~assignment:a
let feasible t a = capacity_feasible t a && timing_feasible t a

let deviation_p t ~initial =
  let m_ = m t and n_ = n t in
  Array.init m_ (fun i ->
      Array.init n_ (fun j ->
          Netlist.size t.netlist j *. Topology.b t.topology i initial.(j)))

(* --- ECO deltas ----------------------------------------------------- *)

module Delta = Qbpart_netlist.Delta

type delta_result = {
  dr_problem : t;
  dr_new_of_old : int array;
  dr_old_of_new : int array;
  dr_dims_changed : bool;
}

let apply_delta ?topology t delta =
  match Delta.apply t.netlist delta with
  | Error e -> Error e
  | Ok ap -> (
    match t.p with
    | Some _ when ap.Delta.dims_changed ->
      Error
        {
          Delta.at = 0;
          what = "delta";
          reason =
            "instance has a fixed MxN cost matrix P; deltas that add or remove components \
             are not supported for it";
        }
    | _ ->
      let topology = match topology with Some f -> f ap.Delta.netlist | None -> t.topology in
      let n_new = Netlist.n ap.Delta.netlist in
      let b = Constraints.Builder.create ~n:n_new in
      (* Surviving budgets carry over (remapped); retimes then land on
         top with the builder's tighten-only rule. *)
      Constraints.iter t.constraints (fun j1 j2 budget ->
          let u = ap.Delta.new_of_old.(j1) and v = ap.Delta.new_of_old.(j2) in
          if u >= 0 && v >= 0 then Constraints.Builder.add b u v budget);
      List.iter
        (fun (src, dst, budget) -> Constraints.Builder.add b src dst budget)
        ap.Delta.retimes;
      let constraints = Constraints.Builder.build b in
      let dr_problem =
        make ~alpha:t.alpha ~beta:t.beta ?p:t.p ~constraints ap.Delta.netlist topology
      in
      Ok
        {
          dr_problem;
          dr_new_of_old = ap.Delta.new_of_old;
          dr_old_of_new = ap.Delta.old_of_new;
          dr_dims_changed = ap.Delta.dims_changed;
        })
