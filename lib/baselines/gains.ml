module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Assignment = Qbpart_partition.Assignment

type t = {
  nl : Netlist.t;
  bf : float array;           (* B, flat row-major: b(i1, i2) at i1*m + i2 *)
  p : float array array option;
  alpha : float;
  beta : float;
  a : int array;              (* current assignment *)
  loads : float array;
  delta : float array array;  (* delta.(j).(i): objective change of j -> i *)
  m : int;
}

(* Objective convention: the wire j--j' contributes
   beta * w * b(pos(min), pos(max)); the b argument order follows the
   evaluator's canonical endpoint order, so gains stay exact even for
   an asymmetric B matrix.  The per-partition loops below inline this
   term over the flat B (a float returned by a call is boxed). *)
let wire_term t j j' w ~at ~at' =
  if j < j' then t.beta *. w *. t.bf.((at * t.m) + at')
  else t.beta *. w *. t.bf.((at' * t.m) + at)

(* Absolute cost of placing j at i against the current positions of
   everything else. *)
let cost_row t j row =
  let m = t.m and bf = t.bf and beta = t.beta in
  (match t.p with
  | None -> Array.fill row 0 m 0.0
  | Some p ->
    for i = 0 to m - 1 do
      row.(i) <- t.alpha *. p.(i).(j)
    done);
  let xadj = Netlist.adj_offsets t.nl in
  let anbr = Netlist.adj_targets t.nl in
  let awgt = Netlist.adj_weights t.nl in
  for k = xadj.(j) to xadj.(j + 1) - 1 do
    let j' = anbr.(k) and w = awgt.(k) in
    let at' = t.a.(j') in
    if j < j' then
      for i = 0 to m - 1 do
        row.(i) <- row.(i) +. (beta *. w *. bf.((i * m) + at'))
      done
    else
      for i = 0 to m - 1 do
        row.(i) <- row.(i) +. (beta *. w *. bf.((at' * m) + i))
      done
  done

let refresh_row t j =
  let row = t.delta.(j) in
  cost_row t j row;
  let own = row.(t.a.(j)) in
  for i = 0 to t.m - 1 do
    row.(i) <- row.(i) -. own
  done

let create ?p ?(alpha = 1.0) ?(beta = 1.0) nl topo a =
  let m = Topology.m topo in
  Assignment.check ~m a;
  let t =
    {
      nl;
      bf = Topology.b_flat topo;
      p;
      alpha;
      beta;
      a = Assignment.copy a;
      loads = Assignment.loads nl ~m a;
      delta = Array.make_matrix (Netlist.n nl) m 0.0;
      m;
    }
  in
  for j = 0 to Netlist.n nl - 1 do
    refresh_row t j
  done;
  t

let assignment t = t.a
let loads t = t.loads
let m t = t.m
let beta t = t.beta
let move_delta t ~j ~target = t.delta.(j).(target)

let swap_delta t ~j1 ~j2 =
  let p1 = t.a.(j1) and p2 = t.a.(j2) in
  if p1 = p2 then 0.0
  else begin
    let d = t.delta.(j1).(p2) +. t.delta.(j2).(p1) in
    let w = Netlist.connection t.nl j1 j2 in
    if w = 0.0 then d
    else
      (* Both single-move deltas assumed the other endpoint stayed
         put, so each removed the full direct-wire term; the swap
         keeps the wire alive with exchanged endpoints. *)
      d
      +. wire_term t j1 j2 w ~at:p2 ~at':p1
      +. wire_term t j1 j2 w ~at:p1 ~at':p2
  end

let apply_move t ~j ~target =
  let from = t.a.(j) in
  if target <> from then begin
    let s = Netlist.size t.nl j in
    t.loads.(from) <- t.loads.(from) -. s;
    t.loads.(target) <- t.loads.(target) +. s;
    t.a.(j) <- target;
    (* j's own row: rebase on the new position *)
    let row = t.delta.(j) in
    let own = row.(target) in
    for i = 0 to t.m - 1 do
      row.(i) <- row.(i) -. own
    done;
    (* neighbors see the wire endpoint move from [from] to [target]:
       row'.(i) gains shift(i) - shift(at'), where shift(i) is the
       change of the wire term with j' at i *)
    let m = t.m and bf = t.bf and beta = t.beta in
    let xadj = Netlist.adj_offsets t.nl in
    let anbr = Netlist.adj_targets t.nl in
    let awgt = Netlist.adj_weights t.nl in
    for k = xadj.(j) to xadj.(j + 1) - 1 do
      let j' = anbr.(k) and w = awgt.(k) in
      let row' = t.delta.(j') in
      let at' = t.a.(j') in
      if j' < j then begin
        let base =
          (beta *. w *. bf.((at' * m) + target)) -. (beta *. w *. bf.((at' * m) + from))
        in
        for i = 0 to m - 1 do
          row'.(i) <-
            row'.(i)
            +. ((beta *. w *. bf.((i * m) + target)) -. (beta *. w *. bf.((i * m) + from)))
            -. base
        done
      end
      else begin
        let base =
          (beta *. w *. bf.((target * m) + at')) -. (beta *. w *. bf.((from * m) + at'))
        in
        for i = 0 to m - 1 do
          row'.(i) <-
            row'.(i)
            +. ((beta *. w *. bf.((target * m) + i)) -. (beta *. w *. bf.((from * m) + i)))
            -. base
        done
      end
    done
  end

let apply_swap t ~j1 ~j2 =
  let p1 = t.a.(j1) and p2 = t.a.(j2) in
  if p1 <> p2 then begin
    apply_move t ~j:j1 ~target:p2;
    apply_move t ~j:j2 ~target:p1
  end

let move_fits t topo ~j ~target =
  target = t.a.(j)
  || t.loads.(target) +. Netlist.size t.nl j <= Topology.capacity topo target

let swap_fits t topo ~j1 ~j2 =
  let p1 = t.a.(j1) and p2 = t.a.(j2) in
  p1 = p2
  || begin
    let s1 = Netlist.size t.nl j1 and s2 = Netlist.size t.nl j2 in
    t.loads.(p1) -. s1 +. s2 <= Topology.capacity topo p1
    && t.loads.(p2) -. s2 +. s1 <= Topology.capacity topo p2
  end
