module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Assignment = Qbpart_partition.Assignment
module Problem = Qbpart_core.Problem

(* Grow a region of roughly [target] total size inside [members]: start
   from a random member, then repeatedly absorb the member with the
   heaviest total wiring into the region (ties to the lower id;
   disconnected members join last, in id order, via their zero gain).
   [state] and [gain] are indexed by component id: [state] reads 0
   outside the call, 1 for a member not yet absorbed (with its wiring
   into the region in [gain]) and 2 once absorbed.  Each step scans the
   members, so the growth is quadratic in the set; at Table I sizes
   that scan beat a binary heap with lazy deletion (DESIGN.md D32). *)
let grow_region rng nl ~sizes ~state ~gain ~members ~target =
  Array.iter (fun j -> state.(j) <- 1) members;
  Array.iter (fun j -> gain.(j) <- 0.0) members;
  let xadj = Netlist.adj_offsets nl in
  let anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  let absorb j =
    state.(j) <- 2;
    for k = xadj.(j) to xadj.(j + 1) - 1 do
      let v = anbr.(k) in
      if state.(v) = 1 then gain.(v) <- gain.(v) +. awgt.(k)
    done
  in
  let anchor = members.(Rng.int rng (Array.length members)) in
  let region_size = ref sizes.(anchor) in
  absorb anchor;
  let left = ref (Array.length members - 1) in
  while !region_size < target && !left > 0 do
    let best = ref (-1) in
    for r = 0 to Array.length members - 1 do
      let j = members.(r) and b = !best in
      if state.(j) = 1 && (b < 0 || gain.(j) > gain.(b) || (gain.(j) = gain.(b) && j < b))
      then best := j
    done;
    region_size := !region_size +. sizes.(!best);
    absorb !best;
    decr left
  done

let recursive_bipartition rng problem =
  let problem = Problem.normalize problem in
  let nl = problem.Problem.netlist in
  let m = Problem.m problem and n = Problem.n problem in
  let sizes = Netlist.sizes nl in
  let a = Array.make n 0 in
  let state = Array.make n 0 and gain = Array.make n 0.0 in
  let total set = List.fold_left (fun acc j -> acc +. sizes.(j)) 0.0 set in
  let rec split set parts label =
    match (set, parts) with
    | [], _ -> ()
    | _, 1 -> List.iter (fun j -> a.(j) <- label) set
    | _ ->
      let p1 = parts / 2 in
      let target = total set *. float_of_int p1 /. float_of_int parts in
      grow_region rng nl ~sizes ~state ~gain ~members:(Array.of_list set) ~target;
      let side1, side2 = List.partition (fun j -> state.(j) = 2) set in
      List.iter (fun j -> state.(j) <- 0) set;
      (* a degenerate cut (everything absorbed) still has to populate
         both sides: peel the tail off in id order *)
      let side1, side2 =
        if side2 = [] && List.length side1 > 1 then
          let k = List.length side1 * p1 / parts in
          let k = max 1 (min k (List.length side1 - 1)) in
          (List.filteri (fun i _ -> i < k) side1, List.filteri (fun i _ -> i >= k) side1)
        else (side1, side2)
      in
      split side1 p1 label;
      split side2 (parts - p1) (label + p1)
  in
  split (List.init n Fun.id) m 0;
  a
