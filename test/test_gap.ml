(* Tests for the Generalized Assignment Problem: instance validation,
   the exact branch-and-bound, MTHG and its improvement pass. *)

open Qbpart_gap
module Rng = Qbpart_netlist.Rng

let check = Alcotest.check
let fail = Alcotest.fail
let flt = Alcotest.float 1e-9

let mk ~cost ~sizes ~capacity = Gap.make_uniform ~cost ~sizes ~capacity

(* 2 knapsacks, 3 items *)
let small =
  mk
    ~cost:[| [| 1.; 5.; 3. |]; [| 4.; 1.; 3. |] |]
    ~sizes:[| 2.; 2.; 2. |]
    ~capacity:[| 4.; 4. |]

let test_gap_accessors () =
  check Alcotest.int "m" 2 small.Gap.m;
  check Alcotest.int "n" 3 small.Gap.n;
  check flt "cost_of" (1. +. 1. +. 3.) (Gap.cost_of small [| 0; 1; 0 |]);
  check Alcotest.bool "feasible" true (Gap.feasible small [| 0; 1; 0 |]);
  check Alcotest.bool "overfull" false (Gap.feasible small [| 0; 0; 0 |])

let test_gap_validation () =
  let expect f =
    try
      ignore (f ());
      fail "invalid instance accepted"
    with Invalid_argument _ -> ()
  in
  expect (fun () -> Gap.make ~cost:[||] ~weight:[||] ~capacity:[||]);
  expect (fun () ->
      mk ~cost:[| [| 1. |]; [| 1. |] |] ~sizes:[| 0. |] ~capacity:[| 1.; 1. |]);
  expect (fun () ->
      Gap.make
        ~cost:[| [| 1.; 2. |] |]
        ~weight:[| [| 1. |] |]
        ~capacity:[| 3. |])

let test_exact_small () =
  match Exact.solve small with
  | None -> fail "feasible instance unsolved"
  | Some (a, c) ->
    (* optimum: item0->k0 (1), item1->k1 (1), item2 -> either (3): total 5 *)
    check flt "optimal cost" 5.0 c;
    check Alcotest.bool "feasible" true (Gap.feasible small a)

let test_exact_infeasible () =
  let g = mk ~cost:[| [| 1.; 1. |] |] ~sizes:[| 3.; 3. |] ~capacity:[| 4. |] in
  check Alcotest.bool "infeasible detected" true (Exact.solve g = None)

let test_exact_forced_split () =
  (* cheapest knapsack can hold only one item: optimum must split *)
  let g =
    mk
      ~cost:[| [| 0.; 0. |]; [| 10.; 10. |] |]
      ~sizes:[| 3.; 3. |]
      ~capacity:[| 3.; 3. |]
  in
  match Exact.solve g with
  | None -> fail "unsolved"
  | Some (_, c) -> check flt "forced split" 10.0 c

let test_mthg_construct () =
  match Mthg.construct small with
  | None -> fail "construction failed on loose instance"
  | Some a -> check Alcotest.bool "feasible" true (Gap.feasible small a)

let test_mthg_solve_optimal_here () =
  match Mthg.solve small with
  | None -> fail "solve failed"
  | Some a -> check flt "matches optimum" 5.0 (Gap.cost_of small a)

let test_mthg_solve_relaxed_never_fails () =
  (* impossibly tight: relaxed must still return a C3 assignment *)
  let g = mk ~cost:[| [| 1.; 1. |] |] ~sizes:[| 3.; 3. |] ~capacity:[| 4. |] in
  let a = Mthg.solve_relaxed g in
  check Alcotest.int "all items placed" 2 (Array.length a);
  Array.iter (fun i -> if i < 0 || i >= 1 then fail "knapsack out of range") a

let test_improve_shift () =
  (* start with a deliberately bad feasible assignment *)
  let a = Improve.shift small [| 1; 0; 0 |] in
  check Alcotest.bool "still feasible" true (Gap.feasible small a);
  if Gap.cost_of small a > Gap.cost_of small [| 1; 0; 0 |] then fail "shift made it worse"

let test_improve_swap () =
  (* swap needed: both knapsacks full, items on the wrong side *)
  let g =
    mk
      ~cost:[| [| 0.; 9. |]; [| 9.; 0. |] |]
      ~sizes:[| 2.; 2. |]
      ~capacity:[| 2.; 2. |]
  in
  let a = Improve.shift_and_swap g [| 1; 0 |] in
  check flt "swapped to optimum" 0.0 (Gap.cost_of g a)

let random_instance rng ~m ~n ~slack =
  let cost = Array.init m (fun _ -> Array.init n (fun _ -> Rng.float rng 10.0)) in
  let sizes = Array.init n (fun _ -> 1.0 +. Rng.float rng 4.0) in
  let total = Array.fold_left ( +. ) 0.0 sizes in
  let capacity = Array.make m (total /. float_of_int m *. slack) in
  mk ~cost ~sizes ~capacity

let prop_exact_beats_mthg =
  QCheck.Test.make ~name:"exact <= MTHG on feasible instances" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_instance rng ~m:3 ~n:8 ~slack:1.5 in
      match (Exact.solve g, Mthg.solve g) with
      | Some (_, opt), Some a -> opt <= Gap.cost_of g a +. 1e-9
      | Some _, None -> true (* heuristic may fail where exact succeeds *)
      | None, Some _ -> false (* heuristic must not "solve" infeasible instances *)
      | None, None -> true)

let prop_mthg_feasible =
  QCheck.Test.make ~name:"MTHG results are feasible" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_instance rng ~m:4 ~n:12 ~slack:1.3 in
      match Mthg.solve g with None -> true | Some a -> Gap.feasible g a)

let prop_mthg_near_optimal =
  QCheck.Test.make ~name:"MTHG within 30% of optimum on loose instances" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_instance rng ~m:3 ~n:9 ~slack:1.8 in
      match (Exact.solve g, Mthg.solve g) with
      | Some (_, opt), Some a -> Gap.cost_of g a <= (opt *. 1.3) +. 2.0
      | _ -> true)

let prop_improve_never_worse =
  QCheck.Test.make ~name:"shift_and_swap never increases cost" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_instance rng ~m:3 ~n:10 ~slack:2.0 in
      match Mthg.construct g with
      | None -> true
      | Some a ->
        let improved = Improve.shift_and_swap g a in
        Gap.feasible g improved && Gap.cost_of g improved <= Gap.cost_of g a +. 1e-9)

(* A completed [Cost] construction put each item in its cheapest
   knapsack that fitted at that moment, and residuals only fell after
   that, so no shift can move it: MTHG skips the shift there under
   [`Shift] (DESIGN.md D35).  Costs are continuous, tied in {0, 1, 2}
   or drawn from {+0.0, -0.0, 1, 2}, and now and then a quarter of
   them -infinity or NaN (through [Gap.borrow], which does not check
   them); weights depend on the knapsack or not; capacities run from
   over-tight, where the construction gets stuck, to loose. *)
let prop_cost_construction_shift_fixed =
  QCheck.Test.make ~name:"shift leaves a completed Cost construction unchanged" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = [| 1; 2; 3; 5; 16; 17 |].(Rng.int rng 6) and n = Rng.int rng 41 in
      let draw =
        match Rng.int rng 3 with
        | 0 -> fun () -> Rng.float rng 10.0
        | 1 -> fun () -> float_of_int (Rng.int rng 3)
        | _ -> fun () -> [| 0.0; -0.0; 1.0; 2.0 |].(Rng.int rng 4)
      in
      let odd = [| None; Some neg_infinity; Some Float.nan |].(Rng.int rng 3) in
      let cost =
        Array.init (m * n) (fun _ ->
            match odd with Some x when Rng.int rng 4 = 0 -> x | _ -> draw ())
      in
      let sizes = Array.init n (fun _ -> 0.5 +. Rng.float rng 1.5) in
      let weight =
        if Rng.int rng 2 = 0 then Gap.uniform_weights ~sizes ~m
        else Array.init (m * n) (fun r -> sizes.(r / m) *. (0.5 +. Rng.float rng 1.0))
      in
      let total = Array.fold_left ( +. ) 0.0 sizes in
      let slack = 0.8 +. Rng.float rng 2.0 in
      let capacity =
        Array.init m (fun _ -> total /. float_of_int m *. slack *. (0.8 +. Rng.float rng 0.4))
      in
      let g = Gap.borrow ~cost ~weight ~capacity ~n in
      match Mthg.construct ~criterion:Mthg.Cost g with
      | None -> true
      | Some a -> Improve.shift g a = a)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "gap"
    [
      ( "instance",
        [
          Alcotest.test_case "accessors" `Quick test_gap_accessors;
          Alcotest.test_case "validation" `Quick test_gap_validation;
        ] );
      ( "exact",
        [
          Alcotest.test_case "small optimum" `Quick test_exact_small;
          Alcotest.test_case "infeasible" `Quick test_exact_infeasible;
          Alcotest.test_case "forced split" `Quick test_exact_forced_split;
        ] );
      ( "mthg",
        [
          Alcotest.test_case "construct" `Quick test_mthg_construct;
          Alcotest.test_case "solve optimal on toy" `Quick test_mthg_solve_optimal_here;
          Alcotest.test_case "solve_relaxed total" `Quick test_mthg_solve_relaxed_never_fails;
        ] );
      ( "improve",
        [
          Alcotest.test_case "shift" `Quick test_improve_shift;
          Alcotest.test_case "swap" `Quick test_improve_swap;
        ] );
      ( "properties",
        [
          q prop_exact_beats_mthg;
          q prop_mthg_feasible;
          q prop_mthg_near_optimal;
          q prop_improve_never_worse;
          q prop_cost_construction_shift_fixed;
        ] );
    ]
