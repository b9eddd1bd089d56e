module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Check = Qbpart_timing.Check
module Assignment = Qbpart_partition.Assignment
module Evaluate = Qbpart_partition.Evaluate
module Validate = Qbpart_partition.Validate

type selection = Scan | Buckets

type config = {
  max_outer : int;
  stall_cutoff : int;
  epsilon : float;
  dummies : int;
  selection : selection;
}

let default_config =
  { max_outer = 6; stall_cutoff = 1_000_000; epsilon = 1e-9; dummies = 6; selection = Buckets }

type result = {
  assignment : Assignment.t;
  cost : float;
  outer_loops : int;
  swaps : int;
  interrupted : bool;
}

(* Kernighan & Lin's classic treatment of unequal partition sizes:
   pad each partition's spare capacity with unconnected dummy
   components, so that "swap with a dummy" realizes a plain move.
   Each partition's spare is split into [chunks] dummies of sizes
   spare/2, spare/4, ..., remainder (exact fill).  The dummies are
   appended to the netlist without rebuilding it.  Returns the
   extended netlist, the extended initial assignment and the extended
   P matrix (dummies cost 0 everywhere). *)
let with_dummies ~chunks ?p nl topo initial =
  let n = Netlist.n nl in
  let m = Topology.m topo in
  let loads = Assignment.loads nl ~m initial in
  let extra = ref [] in
  for i = 0 to m - 1 do
    (* geometric split: spare/2, spare/4, ..., remainder — a mix of
       coarse and fine free-space chunks.  Only 70% of the spare is
       materialized as dummies: filling it exactly would leave every
       partition at capacity and outlaw all unequal-size swaps. *)
    let spare = ref (0.7 *. (Topology.capacity topo i -. loads.(i))) in
    for k = 1 to chunks do
      let size = if k = chunks then !spare else !spare /. 2.0 in
      if size > 1e-9 then begin
        extra := (Printf.sprintf "__dummy_%d_%d" i k, size, i) :: !extra;
        spare := !spare -. size
      end
    done
  done;
  let extra = Array.of_list (List.rev !extra) in
  let nl' = Netlist.append_isolated nl (Array.map (fun (name, size, _) -> (name, size)) extra) in
  let initial' = Array.append initial (Array.map (fun (_, _, i) -> i) extra) in
  let p' =
    Option.map
      (fun p ->
        Array.map (fun row ->
            let row' = Array.make (Netlist.n nl') 0.0 in
            Array.blit row 0 row' 0 n;
            row')
          p)
      p
  in
  (nl', initial', p')

let solve ?(config = default_config) ?p ?alpha ?beta ?constraints
    ?(should_stop = fun () -> false) nl topo ~initial =
  (match Validate.check ?constraints nl topo initial with
  | [] -> ()
  | issue :: _ ->
    invalid_arg
      (Format.asprintf "Gkl.solve: initial solution infeasible: %a" Validate.pp_issue issue));
  let real_n = Netlist.n nl in
  let nl, initial, p =
    if config.dummies > 0 then with_dummies ~chunks:config.dummies ?p nl topo initial
    else (nl, initial, p)
  in
  let n = Netlist.n nl in
  let gains = Gains.create ?p ?alpha ?beta nl topo initial in
  let a = Gains.assignment gains in
  let locked = Array.make n false in
  (* the Scan path's timing legality of the full exchange: each end is
     checked at its new partition with the other end already relocated;
     dummies carry no timing constraints.  The bucket path applies the
     same check itself. *)
  let swap_timing_ok j1 j2 =
    match constraints with
    | None -> true
    | Some c ->
      (j1 >= real_n || Check.placement_ok c topo ~assignment:a ~j:j1 ~at:a.(j2) ~other:j2)
      && (j2 >= real_n || Check.placement_ok c topo ~assignment:a ~j:j2 ~at:a.(j1) ~other:j1)
  in
  let buckets =
    match config.selection with
    | Buckets -> Some (Buckets.create ?constraints nl topo gains)
    | Scan -> None
  in
  let total_swaps = ref 0 in
  let outer = ref 0 in
  let interrupted = ref false in
  let stop () =
    if not !interrupted then interrupted := should_stop ();
    !interrupted
  in
  let improved = ref true in
  while !improved && !outer < config.max_outer && not (stop ()) do
    incr outer;
    improved := false;
    Array.fill locked 0 n false;
    (* create left the first pass's structure *)
    if !outer > 1 then Option.iter Buckets.reset buckets;
    let trail = ref [] in (* (j1, j2) applied swaps, most recent first *)
    let trail_len = ref 0 in
    let cum = ref 0.0 and best_cum = ref 0.0 and best_len = ref 0 in
    let stall = ref 0 in
    let progress = ref true in
    while !progress && !stall < config.stall_cutoff && not (stop ()) do
      (* the bucket path selects the same (delta, j1, j2)-lexicographic
         minimum as the pair scan, pruned by partition-pair bucket
         bounds instead of touching all N² pairs *)
      let selected =
        match buckets with
        | Some b -> Buckets.best_swap b
        | None ->
          let best_j1 = ref (-1) and best_j2 = ref (-1) and best_d = ref infinity in
          for j1 = 0 to n - 1 do
            if not locked.(j1) then
              for j2 = j1 + 1 to n - 1 do
                if (not locked.(j2)) && a.(j1) <> a.(j2) then begin
                  let d = Gains.swap_delta gains ~j1 ~j2 in
                  if d < !best_d then
                    if Gains.swap_fits gains topo ~j1 ~j2 && swap_timing_ok j1 j2 then begin
                      best_d := d;
                      best_j1 := j1;
                      best_j2 := j2
                    end
                end
              done
          done;
          if !best_j1 = -1 then None else Some (!best_j1, !best_j2, !best_d)
      in
      match selected with
      | None -> progress := false
      | Some (j1, j2, d) ->
        trail := (j1, j2) :: !trail;
        incr trail_len;
        (match buckets with
        | Some b ->
          (* lock first: the movers' own cells then skip relinking *)
          Buckets.lock b j1;
          Buckets.lock b j2;
          Buckets.apply_swap b ~j1 ~j2
        | None ->
          Gains.apply_swap gains ~j1 ~j2;
          locked.(j1) <- true;
          locked.(j2) <- true);
        incr total_swaps;
        cum := !cum +. d;
        if !cum < !best_cum -. config.epsilon then begin
          best_cum := !cum;
          best_len := !trail_len;
          stall := 0
        end
        else incr stall
    done;
    let rewind = !trail_len - !best_len in
    (* the bucket rewind keeps the timing counts exact for the next
       pass's reset *)
    let rec undo k trail =
      if k > 0 then
        match trail with
        | (j1, j2) :: rest ->
          (match buckets with
          | Some b -> Buckets.rewind_swap b ~j1 ~j2
          | None -> Gains.apply_swap gains ~j1 ~j2);
          undo (k - 1) rest
        | [] -> assert false
    in
    undo rewind !trail;
    if !best_cum < -.config.epsilon then improved := true
  done;
  let assignment = Array.sub a 0 real_n in
  {
    assignment;
    cost = Evaluate.objective ?alpha ?beta ?p nl topo a;
    outer_loops = !outer;
    swaps = !total_swaps;
    interrupted = !interrupted;
  }
