module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Check = Qbpart_timing.Check
module Rng = Qbpart_netlist.Rng

let by_decreasing_size nl =
  let order = Array.init (Netlist.n nl) Fun.id in
  Array.sort (fun a b -> Float.compare (Netlist.size nl b) (Netlist.size nl a)) order;
  order

let first_fit_decreasing nl topo =
  let m = Topology.m topo in
  let a = Array.make (Netlist.n nl) (-1) in
  let free = Array.init m (Topology.capacity topo) in
  let ok =
    Array.for_all
      (fun j ->
        let s = Netlist.size nl j in
        (* least-loaded-by-remaining-capacity partition with room *)
        let best = ref (-1) in
        for i = 0 to m - 1 do
          if free.(i) >= s && (!best = -1 || free.(i) > free.(!best)) then best := i
        done;
        if !best = -1 then false
        else begin
          a.(j) <- !best;
          free.(!best) <- free.(!best) -. s;
          true
        end)
      (by_decreasing_size nl)
  in
  if ok then Some a else None

let constraint_degree constraints j =
  match constraints with
  | None -> 0
  | Some c -> Constraints.partner_degree c j

(* Visit components breadth-first over the constraint graph so that a
   component is placed while its constrained partners are fresh in the
   layout; isolated components (and the no-constraints case) fall back
   to decreasing-size order.  Roots are chosen by decreasing
   constraint degree with random tie-breaking. *)
let bfs_order ?constraints rng nl =
  let n = Netlist.n nl in
  let base = Array.init n Fun.id in
  Rng.shuffle rng base;
  let key j = (constraint_degree constraints j, Netlist.size nl j) in
  let by_priority =
    Array.of_list (List.stable_sort (fun a b -> compare (key b) (key a)) (Array.to_list base))
  in
  match constraints with
  | None -> by_priority
  | Some c ->
    let poff = Constraints.partner_offsets c in
    let pids = Constraints.partner_ids c in
    let seen = Array.make n false in
    let order = Array.make n 0 in
    let k = ref 0 in
    let push j =
      if not seen.(j) then begin
        seen.(j) <- true;
        order.(!k) <- j;
        incr k
      end
    in
    let queue = Queue.create () in
    Array.iter
      (fun root ->
        if not seen.(root) then begin
          Queue.add root queue;
          while not (Queue.is_empty queue) do
            let j = Queue.pop queue in
            if not seen.(j) then begin
              push j;
              for x = poff.(j) to poff.(j + 1) - 1 do
                let other = pids.(x) in
                if not seen.(other) then Queue.add other queue
              done
            end
          done
        end)
      by_priority;
    order

let one_greedy_attempt ?constraints rng nl topo =
  let m = Topology.m topo in
  let n = Netlist.n nl in
  let order = bfs_order ?constraints rng nl in
  let a = Array.make n (-1) in
  let free = Array.init m (Topology.capacity topo) in
  (* Among timing-legal slots with room, prefer the one closest (in
     delay) to the already-placed constraint partners and wired
     neighbors, with random noise so restarts explore. *)
  let xadj = Netlist.adj_offsets nl in
  let anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  let pull j i =
    let total = ref 0.0 in
    (match constraints with
    | None -> ()
    | Some c ->
      let poff = Constraints.partner_offsets c in
      let pids = Constraints.partner_ids c in
      for k = poff.(j) to poff.(j + 1) - 1 do
        let j' = pids.(k) in
        if a.(j') >= 0 then
          total := !total +. Topology.d topo i a.(j') +. Topology.d topo a.(j') i
      done);
    for k = xadj.(j) to xadj.(j + 1) - 1 do
      let j' = anbr.(k) in
      if a.(j') >= 0 then total := !total +. (awgt.(k) *. Topology.b topo i a.(j'))
    done;
    !total
  in
  let pulls = Array.make m infinity in
  let ok =
    Array.for_all
      (fun j ->
        let s = Netlist.size nl j in
        Array.fill pulls 0 m infinity;
        let min_pull = ref infinity in
        for i = 0 to m - 1 do
          if free.(i) >= s then begin
            let timing_ok =
              match constraints with
              | None -> true
              | Some c -> Check.placement_ok c topo ~assignment:a ~j ~at:i ~other:(-1)
            in
            if timing_ok then begin
              let p = pull j i in
              pulls.(i) <- p;
              if p < !min_pull then min_pull := p
            end
          end
        done;
        if !min_pull = infinity then false
        else begin
          (* Among legal slots whose pull is close to the best, take
             the emptiest: proximity keeps timing satisfiable for the
             partners still to come, the capacity bias keeps the
             endgame from running out of room. *)
          let margin = (!min_pull *. 1.3) +. 1.0 +. Rng.float rng 1.0 in
          let best = ref (-1) in
          for i = 0 to m - 1 do
            if pulls.(i) <= margin && (!best = -1 || free.(i) > free.(!best)) then best := i
          done;
          a.(j) <- !best;
          free.(!best) <- free.(!best) -. s;
          true
        end)
      order
  in
  if ok then Some a else None

let greedy_feasible ?constraints ?(attempts = 50) rng nl topo () =
  let rec go k = if k = 0 then None
    else
      match one_greedy_attempt ?constraints rng nl topo with
      | Some a -> Some a
      | None -> go (k - 1)
  in
  go (max 1 attempts)
