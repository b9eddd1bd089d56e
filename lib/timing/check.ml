module Topology = Qbpart_topology.Topology

type violation = { j1 : int; j2 : int; delay : float; budget : float }

let violations c topo ~assignment =
  Constraints.fold c ~init:[] ~f:(fun acc j1 j2 budget ->
      let delay = Topology.d topo assignment.(j1) assignment.(j2) in
      if delay > budget then { j1; j2; delay; budget } :: acc else acc)
  |> List.rev

let count c topo ~assignment =
  Constraints.fold c ~init:0 ~f:(fun acc j1 j2 budget ->
      if Topology.d topo assignment.(j1) assignment.(j2) > budget then acc + 1 else acc)

let feasible c topo ~assignment = count c topo ~assignment = 0

let worst_slack c topo ~assignment =
  Constraints.fold c ~init:infinity ~f:(fun acc j1 j2 budget ->
      Float.min acc (budget -. Topology.d topo assignment.(j1) assignment.(j2)))

let placement_ok c topo ~assignment ~j ~at ~other =
  let poff = Constraints.partner_offsets c in
  let pids = Constraints.partner_ids c in
  let pbout = Constraints.partner_budget_out c in
  let pbin = Constraints.partner_budget_in c in
  let d = Topology.d_flat topo and m = Topology.m topo in
  let other_at = assignment.(j) in
  let ok = ref true in
  let k = ref poff.(j) in
  let hi = poff.(j + 1) in
  while !ok && !k < hi do
    let j' = pids.(!k) in
    let at' = if j' = other then other_at else assignment.(j') in
    if at' >= 0 && (d.((at * m) + at') > pbout.(!k) || d.((at' * m) + at) > pbin.(!k)) then
      ok := false;
    incr k
  done;
  !ok
