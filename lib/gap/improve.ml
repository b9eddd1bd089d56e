(* All passes index the flat item-major matrices directly: for a fixed
   item [j] the m knapsack entries sit at [j*m .. j*m+m-1], so the
   shift scan reads one contiguous unboxed block per item. *)

let min_cost_into (g : Gap.t) min_cost =
  let m = g.Gap.m and cost = g.Gap.cost in
  for j = 0 to g.Gap.n - 1 do
    let base = j * m in
    let lo = ref cost.(base) in
    for i = 1 to m - 1 do
      if cost.(base + i) < !lo then lo := cost.(base + i)
    done;
    min_cost.(j) <- !lo
  done

(* [min_cost] is [min_cost_into]'s per-item minimum.  An item already
   at its unconstrained cheapest knapsack has no strictly cheaper one to
   shift to, so it is skipped without a scan: the moves are exactly
   those of the full scan.  (A NaN cost fails the [<=] test and takes
   the scan.) *)
let shift_pass (g : Gap.t) assignment residual min_cost =
  let m = g.Gap.m in
  let cost = g.Gap.cost and weight = g.Gap.weight in
  let improved = ref false in
  for j = 0 to g.Gap.n - 1 do
    let base = j * m in
    let from = assignment.(j) in
    if not (cost.(base + from) <= min_cost.(j)) then begin
      let best = ref from in
      let best_cost = ref cost.(base + from) in
      for i = 0 to m - 1 do
        if i <> from && weight.(base + i) <= residual.(i) && cost.(base + i) < !best_cost
        then begin
          best := i;
          best_cost := cost.(base + i)
        end
      done;
      if !best <> from then begin
        let i = !best in
        residual.(from) <- residual.(from) +. weight.(base + from);
        residual.(i) <- residual.(i) -. weight.(base + i);
        assignment.(j) <- i;
        improved := true
      end
    end
  done;
  !improved

let swap_pass (g : Gap.t) assignment residual =
  let m = g.Gap.m in
  let cost = g.Gap.cost and weight = g.Gap.weight in
  let improved = ref false in
  let n = g.Gap.n in
  for j1 = 0 to n - 1 do
    for j2 = j1 + 1 to n - 1 do
      let i1 = assignment.(j1) and i2 = assignment.(j2) in
      if i1 <> i2 then begin
        let b1 = j1 * m and b2 = j2 * m in
        let w11 = weight.(b1 + i1)
        and w22 = weight.(b2 + i2)
        and w12 = weight.(b1 + i2)
        and w21 = weight.(b2 + i1) in
        let fits1 = residual.(i1) +. w11 -. w21 >= 0.0 in
        let fits2 = residual.(i2) +. w22 -. w12 >= 0.0 in
        if fits1 && fits2 then begin
          let before = cost.(b1 + i1) +. cost.(b2 + i2) in
          let after = cost.(b1 + i2) +. cost.(b2 + i1) in
          if after < before then begin
            residual.(i1) <- residual.(i1) +. w11 -. w21;
            residual.(i2) <- residual.(i2) +. w22 -. w12;
            assignment.(j1) <- i2;
            assignment.(j2) <- i1;
            improved := true
          end
        end
      end
    done
  done;
  !improved

let residual_into (g : Gap.t) assignment residual =
  let m = g.Gap.m in
  Array.blit g.Gap.capacity 0 residual 0 m;
  Array.iteri
    (fun j i -> residual.(i) <- residual.(i) -. g.Gap.weight.((j * m) + i))
    assignment

let residual_of g assignment =
  let residual = Array.make g.Gap.m 0.0 in
  residual_into g assignment residual;
  residual

(* In-place variants: the pooled MTHG path already owns a residual
   array consistent with the assignment, so improvement runs without a
   single allocation. *)
let shift_in_place g assignment ~residual ~min_cost =
  while shift_pass g assignment residual min_cost do
    ()
  done

let shift_and_swap_in_place g assignment ~residual ~min_cost =
  let continue = ref true in
  while !continue do
    let s1 = shift_pass g assignment residual min_cost in
    let s2 = swap_pass g assignment residual in
    continue := s1 || s2
  done

let min_cost_of g =
  let min_cost = Array.make g.Gap.n 0.0 in
  min_cost_into g min_cost;
  min_cost

let shift g assignment =
  let a = Array.copy assignment in
  let residual = residual_of g a in
  shift_in_place g a ~residual ~min_cost:(min_cost_of g);
  a

let shift_and_swap g assignment =
  let a = Array.copy assignment in
  let residual = residual_of g a in
  shift_and_swap_in_place g a ~residual ~min_cost:(min_cost_of g);
  a
