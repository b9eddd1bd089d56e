let node_limit = 10_000_000

let solve (g : Gap.t) =
  let { Gap.m; n; _ } = g in
  let cost = g.Gap.cost and weight = g.Gap.weight in
  (* Order items by decreasing maximum weight: hard-to-place first. *)
  let order = Array.init n Fun.id in
  let max_weight j =
    let base = j * m in
    let w = ref 0.0 in
    for i = 0 to m - 1 do
      w := Float.max !w weight.(base + i)
    done;
    !w
  in
  Array.sort (fun a b -> Float.compare (max_weight b) (max_weight a)) order;
  (* min_tail.(k) = sum over positions >= k of the item's min cost,
     ignoring capacities: an admissible lower bound on completion. *)
  let min_cost j =
    let base = j * m in
    let c = ref infinity in
    for i = 0 to m - 1 do
      c := Float.min !c cost.(base + i)
    done;
    !c
  in
  let min_tail = Array.make (n + 1) 0.0 in
  for k = n - 1 downto 0 do
    min_tail.(k) <- min_tail.(k + 1) +. min_cost order.(k)
  done;
  let best_cost = ref infinity in
  let best = ref None in
  let assignment = Array.make n (-1) in
  let residual = Array.copy g.Gap.capacity in
  let nodes = ref 0 in
  let rec go k acc =
    incr nodes;
    if !nodes > node_limit then failwith "Gap.Exact.solve: node limit exceeded";
    if k = n then begin
      if acc < !best_cost then begin
        best_cost := acc;
        best := Some (Array.copy assignment)
      end
    end
    else if acc +. min_tail.(k) < !best_cost then begin
      let j = order.(k) in
      let base = j * m in
      (* Try knapsacks cheapest-first for better pruning. *)
      let idx = Array.init m Fun.id in
      Array.sort (fun a b -> Float.compare cost.(base + a) cost.(base + b)) idx;
      Array.iter
        (fun i ->
          let w = weight.(base + i) in
          if w <= residual.(i) then begin
            residual.(i) <- residual.(i) -. w;
            assignment.(j) <- i;
            go (k + 1) (acc +. cost.(base + i));
            assignment.(j) <- -1;
            residual.(i) <- residual.(i) +. w
          end)
        idx
    end
  in
  go 0 0.0;
  match !best with None -> None | Some a -> Some (a, !best_cost)
