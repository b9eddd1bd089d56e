module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Check = Qbpart_timing.Check
module Assignment = Qbpart_partition.Assignment
module Evaluate = Qbpart_partition.Evaluate
module Validate = Qbpart_partition.Validate

type selection = Scan | Buckets

type config = { max_passes : int; epsilon : float; selection : selection }

let default_config = { max_passes = 50; epsilon = 1e-9; selection = Buckets }

type result = {
  assignment : Assignment.t;
  cost : float;
  passes : int;
  moves : int;
  interrupted : bool;
}

let solve ?(config = default_config) ?p ?alpha ?beta ?constraints
    ?(should_stop = fun () -> false) nl topo ~initial =
  (match Validate.check ?constraints nl topo initial with
  | [] -> ()
  | issue :: _ ->
    invalid_arg
      (Format.asprintf "Gfm.solve: initial solution infeasible: %a" Validate.pp_issue issue));
  let n = Netlist.n nl and m = Topology.m topo in
  let gains = Gains.create ?p ?alpha ?beta nl topo initial in
  let a = Gains.assignment gains in
  let locked = Array.make n false in
  (* the Scan path's timing legality; the bucket path applies the same
     check itself *)
  let timing_ok j target =
    match constraints with
    | None -> true
    | Some c -> Check.placement_ok c topo ~assignment:a ~j ~at:target ~other:(-1)
  in
  let buckets =
    match config.selection with
    | Buckets -> Some (Buckets.create ?constraints nl topo gains)
    | Scan -> None
  in
  let total_moves = ref 0 in
  let passes = ref 0 in
  let interrupted = ref false in
  let stop () =
    if not !interrupted then interrupted := should_stop ();
    !interrupted
  in
  let improved = ref true in
  while !improved && !passes < config.max_passes && not (stop ()) do
    incr passes;
    improved := false;
    Array.fill locked 0 n false;
    Option.iter Buckets.reset buckets;
    let trail = ref [] in (* (j, from), most recent first *)
    let trail_len = ref 0 in
    let cum = ref 0.0 in
    let best_cum = ref 0.0 in
    let best_len = ref 0 in
    let progress = ref true in
    while !progress && not (stop ()) do
      (* best legal move among unlocked components; legality is only
         checked when a candidate actually beats the current best, so
         the common case is a cheap delta comparison.  The bucket path
         selects the same (delta, j, i)-lexicographic minimum without
         scanning the full N×M table. *)
      let selected =
        match buckets with
        | Some b -> Buckets.best_move b
        | None ->
          let best_j = ref (-1) and best_i = ref (-1) and best_d = ref infinity in
          for j = 0 to n - 1 do
            if not locked.(j) then begin
              let from = a.(j) in
              for i = 0 to m - 1 do
                if i <> from && Gains.move_delta gains ~j ~target:i < !best_d then
                  if Gains.move_fits gains topo ~j ~target:i && timing_ok j i then begin
                    best_d := Gains.move_delta gains ~j ~target:i;
                    best_j := j;
                    best_i := i
                  end
              done
            end
          done;
          if !best_j = -1 then None else Some (!best_j, !best_i, !best_d)
      in
      match selected with
      | None -> progress := false
      | Some (j, target, d) ->
        trail := (j, a.(j)) :: !trail;
        incr trail_len;
        (match buckets with
        | Some b ->
          (* lock first: the mover's own cells then skip relinking *)
          Buckets.lock b j;
          Buckets.apply_move b ~j ~target
        | None ->
          Gains.apply_move gains ~j ~target;
          locked.(j) <- true);
        incr total_moves;
        cum := !cum +. d;
        if !cum < !best_cum -. config.epsilon then begin
          best_cum := !cum;
          best_len := !trail_len
        end
    done;
    (* rewind to the best prefix *)
    let rewind = !trail_len - !best_len in
    let rec undo k trail =
      if k > 0 then
        match trail with
        | (j, from) :: rest ->
          Gains.apply_move gains ~j ~target:from;
          undo (k - 1) rest
        | [] -> assert false
    in
    undo rewind !trail;
    if !best_cum < -.config.epsilon then improved := true
  done;
  let assignment = Assignment.copy a in
  {
    assignment;
    cost = Evaluate.objective ?alpha ?beta ?p nl topo assignment;
    passes = !passes;
    moves = !total_moves;
    interrupted = !interrupted;
  }
