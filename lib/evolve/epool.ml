module Assignment = Qbpart_partition.Assignment

type entry = { assignment : Assignment.t; cost : float; origin : int; birth : int }

type verdict = Admitted | Replaced of entry | Rejected

type t = {
  cap : int;
  min_distance : int;
  m : int;
  mutable items : entry list; (* ascending (cost, birth) *)
  mutable births : int;
}

let create ~capacity ~min_distance ~m =
  if capacity < 1 then invalid_arg "Epool.create: capacity must be >= 1";
  if min_distance < 0 then invalid_arg "Epool.create: negative min_distance";
  if m < 1 then invalid_arg "Epool.create: m must be >= 1";
  { cap = capacity; min_distance; m; items = []; births = 0 }

let entries t = t.items
let best t = match t.items with [] -> None | e :: _ -> Some e
let size t = List.length t.items
let capacity t = t.cap

let order a b =
  match Float.compare a.cost b.cost with 0 -> Int.compare a.birth b.birth | c -> c

let insert t e =
  t.items <- List.sort order (e :: t.items)

let remove t dead = t.items <- List.filter (fun e -> e != dead) t.items

(* Nearest entry by (aligned distance, birth): the deterministic
   anchor every admission decision hangs off. *)
let nearest t a =
  List.fold_left
    (fun acc e ->
      let d = Diversity.aligned_distance ~m:t.m e.assignment a in
      match acc with
      | Some (d', e') when d' < d || (d' = d && e'.birth <= e.birth) -> acc
      | _ -> Some (d, e))
    None t.items

let admit t a ~cost ~origin =
  let fresh () =
    let e = { assignment = Array.copy a; cost; origin; birth = t.births } in
    t.births <- t.births + 1;
    e
  in
  match nearest t a with
  | None ->
    insert t (fresh ());
    Admitted
  | Some (0, _) -> Rejected
  | Some (d, near) when d < t.min_distance ->
    if cost < near.cost then begin
      remove t near;
      insert t (fresh ());
      Replaced near
    end
    else Rejected
  | Some _ ->
    if List.length t.items < t.cap then begin
      insert t (fresh ());
      Admitted
    end
    else begin
      (* items is sorted, so the last entry is the worst (highest
         cost, then latest birth) — the one eviction can't demote the
         champion *)
      let worst = List.nth t.items (List.length t.items - 1) in
      if cost < worst.cost then begin
        remove t worst;
        insert t (fresh ());
        Replaced worst
      end
      else Rejected
    end

let min_pairwise_distance t =
  let rec go acc = function
    | [] | [ _ ] -> acc
    | e :: rest ->
      let acc =
        List.fold_left
          (fun acc e' ->
            min acc (Diversity.aligned_distance ~m:t.m e.assignment e'.assignment))
          acc rest
      in
      go acc rest
  in
  go max_int t.items
