(* Tests for the timing substrate: constraint storage, violation
   checking, and the STA budget derivation. *)

open Qbpart_timing
module Grid = Qbpart_topology.Grid
module Topology = Qbpart_topology.Topology
module Netlist = Qbpart_netlist.Netlist

let check = Alcotest.check
let fail = Alcotest.fail
let flt = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Constraints *)

let build ~n adds =
  let b = Constraints.Builder.create ~n in
  List.iter (fun (j1, j2, x) -> Constraints.Builder.add b j1 j2 x) adds;
  Constraints.Builder.build b

let test_constraints_basic () =
  check Alcotest.bool "empty" true (Constraints.empty (Constraints.none ~n:4));
  let c = build ~n:4 [ (0, 1, 2.0) ] in
  check flt "stored" 2.0 (Constraints.budget c 0 1);
  check flt "other direction absent" infinity (Constraints.budget c 1 0);
  check Alcotest.int "count" 1 (Constraints.count c);
  check Alcotest.int "pair count" 1 (Constraints.pair_count c)

let test_constraints_tightening () =
  let c = build ~n:3 [ (0, 1, 5.0); (0, 1, 3.0) ] in
  check flt "tighter kept" 3.0 (Constraints.budget c 0 1);
  let c = build ~n:3 [ (0, 1, 5.0); (0, 1, 3.0); (0, 1, 10.0) ] in
  check flt "looser ignored" 3.0 (Constraints.budget c 0 1);
  check Alcotest.int "still one entry" 1 (Constraints.count c);
  (* of two equal budgets the first added is kept: 0. and -0. tie *)
  let bits c = Int64.bits_of_float (Constraints.budget c 0 1) in
  check Alcotest.int64 "0. then -0." (Int64.bits_of_float 0.0)
    (bits (build ~n:2 [ (0, 1, 0.0); (0, 1, -0.0) ]));
  check Alcotest.int64 "-0. then 0." (Int64.bits_of_float (-0.0))
    (bits (build ~n:2 [ (0, 1, -0.0); (0, 1, 0.0) ]))

let test_constraints_sym () =
  let b = Constraints.Builder.create ~n:3 in
  Constraints.Builder.add_sym b 0 2 4.0;
  let c = Constraints.Builder.build b in
  check flt "forward" 4.0 (Constraints.budget c 0 2);
  check flt "backward" 4.0 (Constraints.budget c 2 0);
  check Alcotest.int "two directed" 2 (Constraints.count c);
  check Alcotest.int "one pair" 1 (Constraints.pair_count c)

let test_constraints_validation () =
  let b = Constraints.Builder.create ~n:3 in
  let rejects what j1 j2 x =
    try
      Constraints.Builder.add b j1 j2 x;
      fail (what ^ " accepted")
    with Invalid_argument _ -> ()
  in
  rejects "self pair" 1 1 1.0;
  rejects "negative budget" 0 1 (-1.0);
  rejects "NaN budget" 0 1 Float.nan;
  rejects "out-of-range source" 3 1 1.0;
  rejects "out-of-range destination" 0 (-1) 1.0;
  rejects "out-of-range infinite budget" 0 3 infinity;
  Constraints.Builder.add b 0 1 infinity;
  let c = Constraints.Builder.build b in
  check Alcotest.int "infinite budget ignored" 0 (Constraints.count c);
  check Alcotest.bool "no partner for an infinite budget" true
    (Constraints.partner_degree c 0 = 0);
  rejects "add after build" 0 1 1.0;
  (try
     Constraints.Builder.add_sym b 0 2 1.0;
     fail "add_sym after build accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Constraints.Builder.create ~n:(-1));
    fail "negative n accepted"
  with Invalid_argument _ -> ()

let test_partners () =
  let c = build ~n:4 [ (0, 1, 2.0); (2, 0, 3.0) ] in
  let lo = (Constraints.partner_offsets c).(0) in
  let ids = Constraints.partner_ids c in
  let bout = Constraints.partner_budget_out c and bin = Constraints.partner_budget_in c in
  check Alcotest.int "two partners" 2 (Constraints.partner_degree c 0);
  check Alcotest.int "sorted partners" 1 ids.(lo);
  check flt "out budget to 1" 2.0 bout.(lo);
  check flt "no in budget from 1" infinity bin.(lo);
  check Alcotest.int "partner 2" 2 ids.(lo + 1);
  check flt "in budget from 2" 3.0 bin.(lo + 1);
  check flt "no out budget to 2" infinity bout.(lo + 1);
  let c = build ~n:4 [ (0, 1, 2.0); (2, 0, 3.0); (0, 3, 1.0) ] in
  check Alcotest.int "third partner" 3 (Constraints.partner_degree c 0)

(* A store is immutable: extending one means building another from its
   walk, as [Problem.apply_delta] does, and leaves it unchanged. *)
let test_constraints_copy_independent () =
  let c = build ~n:3 [ (0, 1, 1.0) ] in
  let b = Constraints.Builder.create ~n:3 in
  Constraints.iter c (Constraints.Builder.add b);
  Constraints.Builder.add b 1 2 1.0;
  let c' = Constraints.Builder.build b in
  check Alcotest.int "original unchanged" 1 (Constraints.count c);
  check Alcotest.int "copy extended" 2 (Constraints.count c')

(* D_C is the one sparse matrix left: the cases the general sparse
   matrix had, against the budget store. *)

let test_sparse_basic () =
  let c = build ~n:4 [ (1, 2, 5.0) ] in
  check flt "set/get" 5.0 (Constraints.budget c 1 2);
  check flt "default get" infinity (Constraints.budget c 2 1);
  check Alcotest.int "nnz" 1 (Constraints.count c)

let test_sparse_default_inf () =
  let c = build ~n:2 [ (0, 1, 3.0) ] in
  check flt "stored" 3.0 (Constraints.budget c 0 1);
  check flt "default inf" infinity (Constraints.budget c 1 0);
  check Alcotest.bool "mem" true (Constraints.mem c 0 1);
  (* 1 -> 0 shares the partner slot of 0 -> 1 but holds no budget *)
  check Alcotest.bool "not mem" false (Constraints.mem c 1 0)

let test_sparse_row_sorted () =
  let c = build ~n:10 (List.map (fun j -> (0, j, float_of_int j)) [ 7; 2; 9; 4 ]) in
  let walk = Constraints.fold c ~init:[] ~f:(fun acc _ j _ -> j :: acc) in
  check Alcotest.(list int) "sorted columns" [ 2; 4; 7; 9 ] (List.rev walk)

let test_sparse_out_of_range () =
  let c = build ~n:2 [ (0, 1, 1.0) ] in
  (try
     ignore (Constraints.budget c 2 0);
     fail "out of range accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Constraints.mem c 0 2);
    fail "out of range accepted"
  with Invalid_argument _ -> ()

let test_sparse_equal () =
  let a = build ~n:3 [ (0, 1, 1.0); (2, 1, 2.0) ] in
  let b = build ~n:3 [ (2, 1, 2.0); (0, 1, 4.0); (0, 1, 1.0) ] in
  check Alcotest.bool "equal" true (Constraints.equal a b);
  check Alcotest.bool "not equal" false (Constraints.equal a (build ~n:3 [ (0, 1, 1.0); (2, 1, 3.0) ]));
  check Alcotest.bool "other direction" false
    (Constraints.equal a (build ~n:3 [ (1, 0, 1.0); (2, 1, 2.0) ]));
  check Alcotest.bool "other n" false (Constraints.equal a (build ~n:4 [ (0, 1, 1.0); (2, 1, 2.0) ]))

(* The oracle: the store built from adds equals the reference, bit for
   bit, in every view. *)
let matches_reference (n, ops) =
  let bits = Int64.bits_of_float in
  let r, c = Budget_reference.replay ~n ops in
  let walk = Constraints.fold c ~init:[] ~f:(fun acc j1 j2 x -> (j1, j2, bits x) :: acc) in
  let expect = List.map (fun (j1, j2, x) -> (j1, j2, bits x)) (Budget_reference.walk r) in
  if List.rev walk <> expect then fail "walk";
  for j1 = 0 to n - 1 do
    for j2 = 0 to n - 1 do
      if bits (Constraints.budget c j1 j2) <> bits (Budget_reference.budget r j1 j2) then
        fail "budget";
      if Constraints.mem c j1 j2 <> Budget_reference.mem r j1 j2 then fail "mem"
    done
  done;
  if Constraints.count c <> List.length expect then fail "count";
  let rows = Budget_reference.partners r in
  let pairs = Array.fold_left (fun acc row -> acc + List.length row) 0 rows / 2 in
  if Constraints.pair_count c <> pairs then fail "pair_count";
  let poff = Constraints.partner_offsets c and ids = Constraints.partner_ids c in
  let bout = Constraints.partner_budget_out c and bin = Constraints.partner_budget_in c in
  if Array.length poff <> n + 1 || poff.(n) <> Array.length ids then fail "offsets";
  if Array.length bout <> Array.length ids || Array.length bin <> Array.length ids then
    fail "budget arrays";
  Array.iteri
    (fun j row ->
      if poff.(j + 1) - poff.(j) <> List.length row then fail "row extent";
      List.iteri
        (fun k (o, x_out, x_in) ->
          let s = poff.(j) + k in
          if ids.(s) <> o || bits bout.(s) <> bits x_out || bits bin.(s) <> bits x_in then
            fail "partner slot")
        row)
    rows;
  true

let prop_store_matches_reference =
  QCheck.Test.make ~name:"budget store = Hashtbl reference, bit for bit" ~count:300
    Budget_reference.arbitrary matches_reference

(* Rows past the insertion sort's bound: row 0 holds three descending
   runs of out-budgets to every other component, with both zeros on
   one pair, and row 1 a descending run of in-budgets. *)
let test_long_rows () =
  let n = 120 in
  let run r = List.init (n - 1) (fun i -> (n - 1 - i, float_of_int ((n - 1 - i + r) mod 5))) in
  let ops =
    List.concat_map
      (fun r -> List.map (fun (o, x) -> Budget_reference.Add (0, o, x)) (run r))
      [ 0; 1; 2 ]
    @ List.init (n - 2) (fun i -> Budget_reference.Add (n - 1 - i, 1, 2.0))
    @ Budget_reference.[ Add (0, 7, 0.0); Add (0, 7, -0.0); Add_sym (5, 0, 1.5) ]
  in
  ignore (matches_reference (n, ops) : bool)

(* ------------------------------------------------------------------ *)
(* Check *)

let topo2x2 = Grid.make ~rows:2 ~cols:2 ~capacity:100.0 ()

let test_check_violations () =
  let b = Constraints.Builder.create ~n:3 in
  Constraints.Builder.add_sym b 0 1 1.0;
  Constraints.Builder.add b 1 2 1.0;
  let c = Constraints.Builder.build b in
  (* 0 at slot 0, 1 at slot 3 (distance 2 > 1), 2 at slot 3 *)
  let a = [| 0; 3; 3 |] in
  let vs = Check.violations c topo2x2 ~assignment:a in
  check Alcotest.int "two directed violations" 2 (List.length vs);
  check Alcotest.int "count" 2 (Check.count c topo2x2 ~assignment:a);
  check Alcotest.bool "infeasible" false (Check.feasible c topo2x2 ~assignment:a);
  check flt "worst slack" (-1.0) (Check.worst_slack c topo2x2 ~assignment:a);
  (* feasible placement *)
  let a = [| 0; 1; 1 |] in
  check Alcotest.bool "feasible" true (Check.feasible c topo2x2 ~assignment:a);
  check flt "worst slack 0" 0.0 (Check.worst_slack c topo2x2 ~assignment:a)

let test_check_no_constraints () =
  let c = Constraints.none ~n:2 in
  check Alcotest.bool "trivially feasible" true (Check.feasible c topo2x2 ~assignment:[| 0; 3 |]);
  check flt "worst slack infinite" infinity (Check.worst_slack c topo2x2 ~assignment:[| 0; 3 |])

let test_placement_ok () =
  let c = build ~n:3 [ (0, 1, 1.0) (* 0 -> 1 within 1 *); (2, 0, 1.0) (* 2 -> 0 within 1 *) ] in
  let ok assignment ~at ~other = Check.placement_ok c topo2x2 ~assignment ~j:0 ~at ~other in
  (* 0 unplaced, 1 at slot 1, 2 at slot 2 *)
  let a = [| -1; 1; 2 |] in
  (* slot 0: d(0,1)=1 <= 1 ok; d(2,0)=1 <= 1 ok *)
  check Alcotest.bool "slot 0 ok" true (ok a ~at:0 ~other:(-1));
  (* slot 3: d(3,1)=1 ok; but d(2,3)=1 ok too *)
  check Alcotest.bool "slot 3 ok" true (ok a ~at:3 ~other:(-1));
  (* move partner 1 far: put 1 at 2 => from slot 1: d(1,2)=2 > 1 *)
  check Alcotest.bool "violating slot rejected" false (ok [| -1; 2; -1 |] ~at:1 ~other:(-1));
  (* unplaced partners are ignored *)
  check Alcotest.bool "no partners placed" true (ok [| -1; -1; -1 |] ~at:3 ~other:(-1));
  (* a swap partner is read in j's old place: 0 at slot 0 and 1 at
     slot 3 exchange, so d(3,0)=2 > 1, although 0 at slot 3 beside 1
     would be fine *)
  let a = [| 0; 3; -1 |] in
  check Alcotest.bool "beside the partner" true (ok a ~at:3 ~other:(-1));
  check Alcotest.bool "swapped with the partner" false (ok a ~at:3 ~other:1)

(* placement_ok must agree with a full feasibility check *)
let prop_placement_consistent =
  QCheck.Test.make ~name:"placement_ok agrees with Check.feasible" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Qbpart_netlist.Rng.create seed in
      let n = 5 in
      let b = Constraints.Builder.create ~n in
      for _ = 1 to 6 do
        let j1 = Qbpart_netlist.Rng.int rng n and j2 = Qbpart_netlist.Rng.int rng n in
        if j1 <> j2 then
          Constraints.Builder.add b j1 j2 (float_of_int (Qbpart_netlist.Rng.int rng 3))
      done;
      let c = Constraints.Builder.build b in
      let a = Array.init n (fun _ -> Qbpart_netlist.Rng.int rng 4) in
      let full = Check.feasible c topo2x2 ~assignment:a in
      let piecewise =
        List.for_all
          (fun j ->
            Check.placement_ok c topo2x2 ~assignment:a ~j ~at:a.(j) ~other:(-1))
          (List.init n Fun.id)
      in
      full = piecewise)

(* ------------------------------------------------------------------ *)
(* Sta *)

(* A small diamond: 0 -> 1 -> 3, 0 -> 2 -> 3, intrinsic delays below. *)
let diamond =
  Sta.make ~intrinsic:[| 1.0; 2.0; 4.0; 1.0 |] ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_sta_arrival () =
  let arr = Sta.arrival diamond in
  check flt "arr 0" 1.0 arr.(0);
  check flt "arr 1" 3.0 arr.(1);
  check flt "arr 2" 5.0 arr.(2);
  check flt "arr 3" 6.0 arr.(3)

let test_sta_critical_path () = check flt "critical path" 6.0 (Sta.critical_path diamond)

let test_sta_cycle_detection () =
  try
    ignore (Sta.make ~intrinsic:[| 1.; 1.; 1. |] ~edges:[ (0, 1); (1, 2); (2, 0) ]);
    fail "cycle accepted"
  with Invalid_argument _ -> ()

let test_sta_validation () =
  (try
     ignore (Sta.make ~intrinsic:[| -1.0 |] ~edges:[]);
     fail "negative delay accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Sta.make ~intrinsic:[| 1.; 1. |] ~edges:[ (0, 0) ]);
     fail "self loop accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Sta.make ~intrinsic:[| 1.; 1. |] ~edges:[ (0, 5) ]);
    fail "dangling edge accepted"
  with Invalid_argument _ -> ()

let test_sta_budgets () =
  match Sta.budgets diamond ~cycle_time:10.0 with
  | Error e -> fail e
  | Ok c ->
    check Alcotest.int "one budget per edge" 4 (Constraints.count c);
    (* slow path 0-2-3 has delay 6 over 2 edges: budget (10-6)/2 = 2;
       fast path 0-1-3 has delay 4 over 2 edges: budget (10-4)/2 = 3 *)
    check flt "critical edge budget" 2.0 (Constraints.budget c 0 2);
    check flt "critical edge budget" 2.0 (Constraints.budget c 2 3);
    check flt "fast edge budget" 3.0 (Constraints.budget c 0 1);
    check flt "fast edge budget" 3.0 (Constraints.budget c 1 3)

let test_sta_budgets_infeasible () =
  match Sta.budgets diamond ~cycle_time:5.0 with
  | Error _ -> ()
  | Ok _ -> fail "cycle time below critical path accepted"

let test_sta_slacks () =
  let slacks = Sta.slacks diamond ~cycle_time:6.0 in
  check Alcotest.int "all edges" 4 (List.length slacks);
  List.iter
    (fun (u, v, s) ->
      if (u, v) = (0, 2) || (u, v) = (2, 3) then check flt "critical slack 0" 0.0 s)
    slacks

(* Budget safety: if every edge meets its budget, every path meets the
   cycle time.  Verified on random DAGs by worst-case routing equal to
   the budgets. *)
let prop_sta_budget_safety =
  QCheck.Test.make ~name:"STA budgets are safe" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Qbpart_netlist.Rng.create seed in
      let n = 2 + Qbpart_netlist.Rng.int rng 8 in
      let intrinsic =
        Array.init n (fun _ -> float_of_int (1 + Qbpart_netlist.Rng.int rng 5))
      in
      let edges = ref [] in
      for u = 0 to n - 2 do
        for v = u + 1 to n - 1 do
          if Qbpart_netlist.Rng.float rng 1.0 < 0.4 then edges := (u, v) :: !edges
        done
      done;
      let g = Sta.make ~intrinsic ~edges:!edges in
      let cycle = Sta.critical_path g +. 3.0 in
      match Sta.budgets g ~cycle_time:cycle with
      | Error _ -> false
      | Ok c ->
        (* longest path with routing delay = budget on every edge *)
        let arr = Array.make n 0.0 in
        for u = 0 to n - 1 do
          arr.(u) <- Float.max arr.(u) 0.0 +. intrinsic.(u);
          List.iter
            (fun (a, b) ->
              if a = u then
                arr.(b) <- Float.max arr.(b) (arr.(u) +. Constraints.budget c a b))
            !edges
        done;
        Array.for_all (fun x -> x <= cycle +. 1e-6) arr)

let test_of_netlist () =
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.add_component b ~size:1.0 () in
  let y = Netlist.Builder.add_component b ~size:1.0 () in
  let z = Netlist.Builder.add_component b ~size:1.0 () in
  Netlist.Builder.add_wire b x y ();
  Netlist.Builder.add_wire b y z ();
  Netlist.Builder.add_wire b x z ();
  let nl = Netlist.Builder.build b in
  let g = Sta.of_netlist nl ~intrinsic:[| 1.; 1.; 1. |] ~order:[| 2; 1; 0 |] in
  check Alcotest.int "edges oriented" 3 (Sta.edge_count g);
  (* order 2,1,0: wires become 2->1, 1->0, 2->0; longest path 2-1-0 *)
  check flt "critical path" 3.0 (Sta.critical_path g)

(* ------------------------------------------------------------------ *)
(* Constraints_io *)

let named_netlist () =
  let b = Netlist.Builder.create () in
  ignore (Netlist.Builder.add_component b ~name:"alu" ~size:1.0 ());
  ignore (Netlist.Builder.add_component b ~name:"rom" ~size:1.0 ());
  ignore (Netlist.Builder.add_component b ~name:"io" ~size:1.0 ());
  Netlist.Builder.build b

let test_io_parse () =
  let nl = named_netlist () in
  let src = "# header\nbudget alu rom 2.5\nbudget_sym rom io 1 # note\n" in
  match Constraints_io.parse_string nl src with
  | Error e -> fail (Constraints_io.error_to_string e)
  | Ok c ->
    check flt "directed" 2.5 (Constraints.budget c 0 1);
    check flt "absent direction" infinity (Constraints.budget c 1 0);
    check flt "sym forward" 1.0 (Constraints.budget c 1 2);
    check flt "sym backward" 1.0 (Constraints.budget c 2 1);
    check Alcotest.int "count" 3 (Constraints.count c)

let test_io_errors () =
  let nl = named_netlist () in
  let expect src line =
    match Constraints_io.parse_string nl src with
    | Ok _ -> fail "bad budget file accepted"
    | Error e -> check Alcotest.int "error line" line e.Constraints_io.line
  in
  expect "budget alu nowhere 1\n" 1;
  expect "budget alu rom -1\n" 1;
  expect "budget alu alu 1\n" 1;
  expect "budget alu rom\n" 1;
  expect "budget alu rom 1\nfrobnicate x y 1\n" 2

let test_io_crlf () =
  let nl = named_netlist () in
  match Constraints_io.parse_string nl "budget alu rom 1\r\nbudget_sym rom io 2.5\r\n" with
  | Error e -> fail (Constraints_io.error_to_string e)
  | Ok c ->
    check flt "directed" 1.0 (Constraints.budget c 0 1);
    check flt "sym" 2.5 (Constraints.budget c 2 1);
    check Alcotest.int "count" 3 (Constraints.count c)

let test_io_file_errors () =
  let nl = named_netlist () in
  (match Constraints_io.parse_file nl "/nonexistent/qbpart-no-such-file.tim" with
  | Error (`Io _) -> ()
  | Error (`Parse _) -> fail "missing file reported as a parse error"
  | Ok _ -> fail "parsed a nonexistent file");
  match Constraints_io.parse_file nl "." with
  | Error (`Io _) -> ()
  | Error (`Parse _) -> fail "directory reported as a parse error"
  | Ok _ -> fail "parsed a directory"

(* qcheck fuzz: the budget reader is total (see Totality), against a
   fixed netlist whose names the documents use. *)
let fuzz_netlist =
  Qbpart_netlist.Generator.generate (Qbpart_netlist.Rng.create 7)
    (Qbpart_netlist.Generator.default_params ~n:20 ~wires:60)

let budget_fuzz =
  Totality.props ~what:"budget parser" ~words:[ "budget"; "budget_sym"; "c0"; "c1" ]
    ~printed:(fun ~n ~seed ->
      let rng = Qbpart_netlist.Rng.create (n + (seed * 31)) in
      let c = Constraints.Builder.create ~n:(Netlist.n fuzz_netlist) in
      for _ = 1 to 3 * n do
        let j1 = Qbpart_netlist.Rng.int rng n and j2 = Qbpart_netlist.Rng.int rng n in
        let b = float_of_int (Qbpart_netlist.Rng.int rng 7) /. 2.0 in
        if j1 <> j2 then Constraints.Builder.add c j1 j2 b
      done;
      Constraints_io.to_string fuzz_netlist (Constraints.Builder.build c))
    (fun s ->
      match Constraints_io.parse_string fuzz_netlist s with
      | Ok _ -> None
      | Error e -> Some e.Constraints_io.line)

let test_io_roundtrip () =
  let nl = named_netlist () in
  let b = Constraints.Builder.create ~n:3 in
  Constraints.Builder.add b 0 1 2.0;
  Constraints.Builder.add_sym b 1 2 3.5;
  let c = Constraints.Builder.build b in
  match Constraints_io.parse_string nl (Constraints_io.to_string nl c) with
  | Error e -> fail (Constraints_io.error_to_string e)
  | Ok c' ->
    check Alcotest.int "count preserved" (Constraints.count c) (Constraints.count c');
    Constraints.iter c (fun j1 j2 b ->
        check flt "budget preserved" b (Constraints.budget c' j1 j2))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "timing"
    [
      ( "constraints",
        [
          Alcotest.test_case "basic" `Quick test_constraints_basic;
          Alcotest.test_case "tightening" `Quick test_constraints_tightening;
          Alcotest.test_case "symmetric add" `Quick test_constraints_sym;
          Alcotest.test_case "validation" `Quick test_constraints_validation;
          Alcotest.test_case "partners index" `Quick test_partners;
          Alcotest.test_case "copy independence" `Quick test_constraints_copy_independent;
          q prop_store_matches_reference;
          Alcotest.test_case "long rows match the reference" `Quick test_long_rows;
        ] );
      ( "sparse-matrix",
        [
          Alcotest.test_case "basic set/get" `Quick test_sparse_basic;
          Alcotest.test_case "infinite default" `Quick test_sparse_default_inf;
          Alcotest.test_case "rows sorted" `Quick test_sparse_row_sorted;
          Alcotest.test_case "bounds checked" `Quick test_sparse_out_of_range;
          Alcotest.test_case "equality" `Quick test_sparse_equal;
        ] );
      ( "check",
        [
          Alcotest.test_case "violations" `Quick test_check_violations;
          Alcotest.test_case "no constraints" `Quick test_check_no_constraints;
          Alcotest.test_case "placement_ok" `Quick test_placement_ok;
        ] );
      ( "sta",
        [
          Alcotest.test_case "arrival times" `Quick test_sta_arrival;
          Alcotest.test_case "critical path" `Quick test_sta_critical_path;
          Alcotest.test_case "cycle detection" `Quick test_sta_cycle_detection;
          Alcotest.test_case "validation" `Quick test_sta_validation;
          Alcotest.test_case "budgets" `Quick test_sta_budgets;
          Alcotest.test_case "infeasible cycle time" `Quick test_sta_budgets_infeasible;
          Alcotest.test_case "slacks" `Quick test_sta_slacks;
          Alcotest.test_case "of_netlist" `Quick test_of_netlist;
        ] );
      ( "constraints-io",
        [
          Alcotest.test_case "parse" `Quick test_io_parse;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "crlf" `Quick test_io_crlf;
          Alcotest.test_case "file errors are Io" `Quick test_io_file_errors;
        ] );
      ("fuzz", List.map q budget_fuzz);
      ("properties", [ q prop_placement_consistent; q prop_sta_budget_safety ]);
    ]
