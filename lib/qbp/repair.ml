module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment

(* Optional move accounting: when [delta]/[dviol] refs are supplied,
   every applied move adds its exact penalized-cost change and
   violation-count change, so callers can maintain a running penalized
   objective without any full recompute.  The cost change is free —
   the candidate row already prices both endpoints of the move — and
   the violation change is O(partners(j)) via
   [Qmatrix.violations_delta]. *)
let track_cost delta d = match delta with Some r -> r := !r +. d | None -> ()
let track_viol dviol d = match dviol with Some r -> r := !r + d | None -> ()

let coordinate_pass ?delta ?dviol q u ~loads ~scratch =
  let problem = Qmatrix.problem q in
  let nl = problem.Problem.netlist in
  let capacity = Topology.capacity_array problem.Problem.topology in
  let m = Problem.m problem and n = Problem.n problem in
  let moved = ref false in
  (* the running cost change stays an unboxed local through the pass
     (a float stored into a ref cell is boxed): the caller's ref is
     read once and written once, with the same additions in between *)
  let dcost = ref (match delta with Some r -> !r | None -> 0.0) in
  for j = 0 to n - 1 do
    Qmatrix.candidate_costs_into q u ~j scratch;
    let from = u.(j) in
    let s = Netlist.size nl j in
    let overfull = loads.(from) > capacity.(from) in
    let best = ref from in
    let best_cost = ref scratch.(from) in
    for i = 0 to m - 1 do
      if i <> from && loads.(i) +. s <= capacity.(i) then
        if
          scratch.(i) < !best_cost
          || (overfull && !best = from && scratch.(i) <= !best_cost +. 1e-9)
        then begin
          best := i;
          best_cost := scratch.(i)
        end
    done;
    if !best <> from then begin
      dcost := !dcost +. (!best_cost -. scratch.(from));
      track_viol dviol (Qmatrix.violations_delta q u ~j ~i:!best);
      loads.(from) <- loads.(from) -. s;
      loads.(!best) <- loads.(!best) +. s;
      u.(j) <- !best;
      moved := true
    end
  done;
  (match delta with Some r -> r := !dcost | None -> ());
  !moved

let polish q u ~passes =
  if passes > 0 then begin
    let problem = Qmatrix.problem q in
    let nl = problem.Problem.netlist in
    let m = Problem.m problem in
    let loads = Assignment.loads nl ~m u in
    let scratch = Array.make m 0.0 in
    let k = ref passes in
    while !k > 0 && coordinate_pass q u ~loads ~scratch do
      decr k
    done
  end

let polish_tracked q u ~passes =
  let delta = ref 0.0 and dviol = ref 0 in
  if passes > 0 then begin
    let problem = Qmatrix.problem q in
    let nl = problem.Problem.netlist in
    let m = Problem.m problem in
    let loads = Assignment.loads nl ~m u in
    let scratch = Array.make m 0.0 in
    let k = ref passes in
    while !k > 0 && coordinate_pass ~delta ~dviol q u ~loads ~scratch do
      decr k
    done
  end;
  (!delta, !dviol)

(* Exact local cost of component [j] at its current position: the
   candidate-cost row evaluated at u.(j). *)
let local_cost q u scratch j =
  Qmatrix.candidate_costs_into q u ~j scratch;
  scratch.(u.(j))

(* Cost terms shared by the two endpoints of a pair (they both count
   the direct wire and the mutual timing penalties in their local
   costs, so the joint cost must subtract one copy). *)
let shared_cost q j1 j2 i1 i2 =
  let problem = Qmatrix.problem q in
  let topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  let m = Problem.m problem in
  let bf = Topology.b_flat topo and df = Topology.d_flat topo in
  let w = Netlist.connection problem.Problem.netlist j1 j2 in
  let wire =
    if w = 0.0 then 0.0
    else if j1 < j2 then w *. bf.((i1 * m) + i2)
    else w *. bf.((i2 * m) + i1)
  in
  let pen = Qmatrix.penalty q in
  let timing =
    (if df.((i1 * m) + i2) > Constraints.budget cons j1 j2 then pen else 0.0)
    +. if df.((i2 * m) + i1) > Constraints.budget cons j2 j1 then pen else 0.0
  in
  wire +. timing

let pair_pass ?delta ?dviol q u ~loads ~max_pairs =
  let problem = Qmatrix.problem q in
  let nl = problem.Problem.netlist in
  let topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  let m = Problem.m problem and n = Problem.n problem in
  let df = Topology.d_flat topo and capacity = Topology.capacity_array topo in
  let scratch = Array.make m 0.0 in
  let row1 = Array.make m 0.0 and row2 = Array.make m 0.0 in
  (* violated unordered pairs under the current assignment.  The
     partner CSR lists every stored budget j1 -> j2 as the finite
     outgoing budget of slot j2 in row j1, rows ascending and partners
     ascending: the order of the raw budget store, so the table (and
     the candidate list folded out of it) is the one a walk of that
     store would build. *)
  let poff = Constraints.partner_offsets cons in
  let pids = Constraints.partner_ids cons in
  let pbout = Constraints.partner_budget_out cons in
  let seen = Hashtbl.create 64 in
  for j1 = 0 to n - 1 do
    let row = u.(j1) * m in
    for k = poff.(j1) to poff.(j1 + 1) - 1 do
      let j2 = pids.(k) in
      if df.(row + u.(j2)) > pbout.(k) then begin
        let key = if j1 < j2 then (j1, j2) else (j2, j1) in
        if not (Hashtbl.mem seen key) then Hashtbl.replace seen key ()
      end
    done
  done;
  let pairs = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
  let pairs = List.filteri (fun i _ -> i < max_pairs) pairs in
  let moved = ref false in
  List.iter
    (fun (j1, j2) ->
      let p1 = u.(j1) and p2 = u.(j2) in
      let s1 = Netlist.size nl j1 and s2 = Netlist.size nl j2 in
      let current =
        local_cost q u scratch j1 +. local_cost q u scratch j2 -. shared_cost q j1 j2 p1 p2
      in
      (* free the pair's own space while testing placements *)
      loads.(p1) <- loads.(p1) -. s1;
      loads.(p2) <- loads.(p2) -. s2;
      (* joint(i1,i2) = row1(i1 | j2@i2) + base2(i2), where base2 is
         j2's cost with the j1 contribution removed: row1 already
         contains the shared wire/timing term exactly once. *)
      Qmatrix.candidate_costs_into q u ~j:j2 row2;
      let base2 = Array.init m (fun i2 -> row2.(i2) -. shared_cost q j1 j2 p1 i2) in
      let best = ref (p1, p2) and best_cost = ref current in
      for i2 = 0 to m - 1 do
        u.(j2) <- i2;
        Qmatrix.candidate_costs_into q u ~j:j1 row1;
        for i1 = 0 to m - 1 do
          let fits =
            if i1 = i2 then loads.(i1) +. s1 +. s2 <= capacity.(i1)
            else loads.(i1) +. s1 <= capacity.(i1) && loads.(i2) +. s2 <= capacity.(i2)
          in
          if fits then begin
            let joint = row1.(i1) +. base2.(i2) in
            if joint < !best_cost -. 1e-9 then begin
              best_cost := joint;
              best := (i1, i2)
            end
          end
        done
      done;
      u.(j2) <- p2;
      let b1, b2 = !best in
      if b1 <> p1 || b2 <> p2 then begin
        track_cost delta (!best_cost -. current);
        (* the pair move decomposes exactly into two sequential single
           moves; each violation delta is evaluated on the intermediate
           state it applies to *)
        track_viol dviol (Qmatrix.violations_delta q u ~j:j1 ~i:b1);
        u.(j1) <- b1;
        track_viol dviol (Qmatrix.violations_delta q u ~j:j2 ~i:b2);
        u.(j2) <- b2;
        moved := true
      end;
      loads.(b1) <- loads.(b1) +. s1;
      loads.(b2) <- loads.(b2) +. s2)
    pairs;
  !moved

let to_feasible q u ~rounds =
  let problem = Qmatrix.problem q in
  let nl = problem.Problem.netlist in
  let m = Problem.m problem in
  let loads = Assignment.loads nl ~m u in
  let scratch = Array.make m 0.0 in
  (* one full count up front, then maintained incrementally by the
     passes — the per-round O(constraints) feasibility rescan was a
     hot-loop cost on constraint-heavy circuits *)
  let viol = ref (Qmatrix.violations q u) in
  let round = ref 0 in
  let continue = ref true in
  while !continue && !round < rounds && !viol > 0 do
    incr round;
    let c1 = ref false in
    let k = ref 5 in
    while !k > 0 && coordinate_pass ~dviol:viol q u ~loads ~scratch do
      c1 := true;
      decr k
    done;
    let c2 = pair_pass ~dviol:viol q u ~loads ~max_pairs:400 in
    continue := !c1 || c2
  done;
  !viol = 0
