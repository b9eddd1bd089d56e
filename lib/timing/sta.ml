(* Longest-path analysis with two DPs per direction: path delay (for
   the worst slack through an edge) and path edge-count (for the
   division factor).  Using max-delay and max-edge-count separately
   gives budget(e) = (T - Lmax(e)) / Kmax(e), a lower bound on
   (T - L(p))/k(p) for every path p through e; summing the bound along
   any path shows the resulting budgets are safe: if every edge meets
   its budget, every path meets the cycle time. *)

type t = {
  intrinsic : float array;
  edges : (int * int) array; (* deduplicated, sorted *)
  succ : int array array;
  pred : int array array;
  topo_order : int array; (* topological order of node ids *)
}

let build_order n succ =
  let indegree = Array.make n 0 in
  Array.iter (fun outs -> Array.iter (fun v -> indegree.(v) <- indegree.(v) + 1) outs) succ;
  let queue = Queue.create () in
  Array.iteri (fun j d -> if d = 0 then Queue.add j queue) indegree;
  let order = Array.make n (-1) in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order.(!k) <- u;
    incr k;
    Array.iter
      (fun v ->
        indegree.(v) <- indegree.(v) - 1;
        if indegree.(v) = 0 then Queue.add v queue)
      succ.(u)
  done;
  if !k <> n then invalid_arg "Sta.make: signal-flow graph has a cycle";
  order

let make ~intrinsic ~edges =
  let n = Array.length intrinsic in
  Array.iteri
    (fun j d ->
      if d < 0.0 || Float.is_nan d then
        invalid_arg (Printf.sprintf "Sta.make: intrinsic delay of %d is %g" j d))
    intrinsic;
  let seen = Hashtbl.create (List.length edges) in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Sta.make: edge %d->%d out of range" u v);
      if u = v then invalid_arg (Printf.sprintf "Sta.make: self-loop on %d" u);
      Hashtbl.replace seen (u, v) ())
    edges;
  let edges = Hashtbl.fold (fun e () acc -> e :: acc) seen [] |> Array.of_list in
  Array.sort compare edges;
  let out_deg = Array.make n 0 and in_deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      out_deg.(u) <- out_deg.(u) + 1;
      in_deg.(v) <- in_deg.(v) + 1)
    edges;
  let succ = Array.init n (fun j -> Array.make out_deg.(j) 0) in
  let pred = Array.init n (fun j -> Array.make in_deg.(j) 0) in
  let fo = Array.make n 0 and fi = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      succ.(u).(fo.(u)) <- v;
      fo.(u) <- fo.(u) + 1;
      pred.(v).(fi.(v)) <- u;
      fi.(v) <- fi.(v) + 1)
    edges;
  let topo_order = build_order n succ in
  { intrinsic = Array.copy intrinsic; edges; succ; pred; topo_order }

let of_netlist nl ~intrinsic ~order =
  let n = Qbpart_netlist.Netlist.n nl in
  if Array.length order <> n then invalid_arg "Sta.of_netlist: order length mismatch";
  let rank = Array.make n (-1) in
  Array.iteri (fun pos j -> rank.(j) <- pos) order;
  Array.iteri
    (fun j r -> if r < 0 then invalid_arg (Printf.sprintf "Sta.of_netlist: %d missing from order" j))
    rank;
  let edges =
    Qbpart_netlist.Netlist.wires nl |> Array.to_list
    |> List.map (fun w ->
           let u = Qbpart_netlist.Wire.u w and v = Qbpart_netlist.Wire.v w in
           if rank.(u) < rank.(v) then (u, v) else (v, u))
  in
  make ~intrinsic ~edges

let n t = Array.length t.intrinsic
let edge_count t = Array.length t.edges

(* Forward DP in topological order; backward DP in reverse order.
   [delay] includes the node's own intrinsic delay; [hops] is the max
   number of edges on any path ending (resp. starting) at the node. *)
let forward t =
  let n = n t in
  let delay = Array.make n 0.0 and hops = Array.make n 0 in
  Array.iter
    (fun j ->
      let best_d = ref 0.0 and best_k = ref 0 in
      Array.iter
        (fun p ->
          if delay.(p) > !best_d then best_d := delay.(p);
          if hops.(p) + 1 > !best_k then best_k := hops.(p) + 1)
        t.pred.(j);
      delay.(j) <- t.intrinsic.(j) +. !best_d;
      hops.(j) <- !best_k)
    t.topo_order;
  (delay, hops)

let backward t =
  let n = n t in
  let delay = Array.make n 0.0 and hops = Array.make n 0 in
  for k = n - 1 downto 0 do
    let j = t.topo_order.(k) in
    let best_d = ref 0.0 and best_k = ref 0 in
    Array.iter
      (fun s ->
        if delay.(s) > !best_d then best_d := delay.(s);
        if hops.(s) + 1 > !best_k then best_k := hops.(s) + 1)
      t.succ.(j);
    delay.(j) <- t.intrinsic.(j) +. !best_d;
    hops.(j) <- !best_k
  done;
  (delay, hops)

let arrival t = fst (forward t)

let critical_path t =
  let delay, _ = forward t in
  Array.fold_left Float.max 0.0 delay

let edge_slack_and_hops t ~cycle_time =
  let fd, fk = forward t in
  let bd, bk = backward t in
  Array.map
    (fun (u, v) ->
      let path_delay = fd.(u) +. bd.(v) in
      let path_hops = fk.(u) + bk.(v) + 1 in
      (u, v, cycle_time -. path_delay, path_hops))
    t.edges

let slacks t ~cycle_time =
  edge_slack_and_hops t ~cycle_time
  |> Array.to_list
  |> List.map (fun (u, v, slack, _) -> (u, v, slack))

let budgets t ~cycle_time =
  let cp = critical_path t in
  if cycle_time < cp then
    Error
      (Printf.sprintf
         "cycle time %g is below the intrinsic critical path %g: no routing budget exists"
         cycle_time cp)
  else begin
    let b = Constraints.Builder.create ~n:(n t) in
    Array.iter
      (fun (u, v, slack, hops) -> Constraints.Builder.add b u v (slack /. float_of_int hops))
      (edge_slack_and_hops t ~cycle_time);
    Ok (Constraints.Builder.build b)
  end
