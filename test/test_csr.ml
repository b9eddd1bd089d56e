(* Equivalence suite for the flat CSR layouts introduced for the
   100k-component frontier: the struct-of-arrays adjacency must carry
   exactly the rows the boxed [(neighbor, weight) array array] layout
   carried (same neighbors, same weights, same order), the flat timing
   partner arrays must match the budget store's Hashtbl reference,
   the parallel CSR construction must be bit-identical to the
   sequential one, and the synthetic frontier generator must be
   deterministic with statistics inside its advertised bounds. *)

open Qbpart_netlist
module Constraints = Qbpart_timing.Constraints
module Check = Qbpart_timing.Check
module Circuits = Qbpart_experiments.Circuits
module Topology = Qbpart_topology.Topology
module Dompool = Qbpart_pool.Dompool
module Synth = Qbpart_experiments.Synth

let check = Alcotest.check
let fail = Alcotest.fail

let with_pool size f =
  let pool = Dompool.create ~domains:size in
  Fun.protect ~finally:(fun () -> Dompool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Reference adjacency: the old boxed layout, rebuilt independently
   from the merged wire array — per-row lists sorted by neighbor id. *)

let boxed_adjacency nl =
  let n = Netlist.n nl in
  let rows = Array.make n [] in
  Netlist.iter_wires nl (fun w ->
      let u = Wire.u w and v = Wire.v w and x = Wire.weight w in
      rows.(u) <- (v, x) :: rows.(u);
      rows.(v) <- (u, x) :: rows.(v));
  Array.map
    (fun l ->
      let a = Array.of_list l in
      Array.sort (fun (j1, _) (j2, _) -> Int.compare j1 j2) a;
      a)
    rows

let random_netlist_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 2 120 in
    let* wires = int_bound (4 * n) in
    let* loc1000 = int_bound 1000 in
    let locality = float_of_int loc1000 /. 1000.0 in
    let* clusters = int_range 1 8 in
    let rng = Rng.create seed in
    let p =
      { (Generator.default_params ~n ~wires) with Generator.locality; clusters }
    in
    return (Generator.generate rng p))

let arbitrary_netlist =
  QCheck.make ~print:(fun nl -> Format.asprintf "%a" Netlist.pp nl) random_netlist_gen

let prop_adjacency_matches_boxed =
  QCheck.Test.make ~name:"CSR rows = boxed rows (neighbors, weights, order)" ~count:150
    arbitrary_netlist (fun nl ->
      let n = Netlist.n nl in
      let boxed = boxed_adjacency nl in
      let xadj = Netlist.adj_offsets nl in
      let anbr = Netlist.adj_targets nl in
      let awgt = Netlist.adj_weights nl in
      if Array.length xadj <> n + 1 then fail "xadj length";
      if xadj.(0) <> 0 || xadj.(n) <> Array.length anbr then fail "xadj bounds";
      if Array.length anbr <> 2 * Netlist.wire_count nl then fail "anbr length";
      for j = 0 to n - 1 do
        let row = boxed.(j) in
        if Netlist.degree nl j <> Array.length row then fail "degree mismatch";
        if xadj.(j + 1) - xadj.(j) <> Array.length row then fail "row extent mismatch";
        Array.iteri
          (fun k (nbr, x) ->
            if anbr.(xadj.(j) + k) <> nbr then fail "neighbor order mismatch";
            if Int64.bits_of_float awgt.(xadj.(j) + k) <> Int64.bits_of_float x then
              fail "weight mismatch")
          row
      done;
      true)

let prop_connection_matches_boxed =
  QCheck.Test.make ~name:"binary-search connection = boxed lookup" ~count:80
    arbitrary_netlist (fun nl ->
      let n = Netlist.n nl in
      let boxed = boxed_adjacency nl in
      let lookup j1 j2 =
        match Array.find_opt (fun (j, _) -> j = j2) boxed.(j1) with
        | Some (_, x) -> x
        | None -> 0.0
      in
      for j1 = 0 to n - 1 do
        for j2 = 0 to n - 1 do
          if Netlist.connection nl j1 j2 <> lookup j1 j2 then fail "connection mismatch"
        done
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Timing partner CSR vs the Hashtbl reference of the budget store
   (Budget_reference), which derives each row from the directed
   budgets the slow way. *)

let prop_partner_csr_matches_reference =
  QCheck.Test.make ~name:"flat partner arrays = Constraints.iter reference" ~count:150
    Budget_reference.arbitrary (fun (n, ops) ->
      let r, cons = Budget_reference.replay ~n ops in
      let reference = Budget_reference.partners r in
      let poff = Constraints.partner_offsets cons in
      let pids = Constraints.partner_ids cons in
      let bout = Constraints.partner_budget_out cons in
      let bin = Constraints.partner_budget_in cons in
      if Array.length poff <> n + 1 then fail "poff length";
      for j = 0 to n - 1 do
        let expect = reference.(j) in
        if Constraints.partner_degree cons j <> List.length expect then
          fail "partner_degree mismatch";
        if poff.(j + 1) - poff.(j) <> List.length expect then fail "row extent";
        List.iteri
          (fun k (o, b_out, b_in) ->
            if pids.(poff.(j) + k) <> o then fail "partner order mismatch";
            if bout.(poff.(j) + k) <> b_out then fail "budget_out mismatch";
            if bin.(poff.(j) + k) <> b_in then fail "budget_in mismatch")
          expect
      done;
      true)

let prop_duplicate_budgets_keep_min =
  QCheck.Test.make ~name:"duplicate directed budgets keep the minimum" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let b1 = 1.0 +. float_of_int (a mod 50) and b2 = 1.0 +. float_of_int (b mod 50) in
      let cons = Constraints.Builder.create ~n:4 in
      Constraints.Builder.add cons 0 1 b1;
      Constraints.Builder.add cons 0 1 b2;
      let cons = Constraints.Builder.build cons in
      let bout = Constraints.partner_budget_out cons in
      let poff = Constraints.partner_offsets cons in
      bout.(poff.(0)) = Float.min b1 b2)

(* ------------------------------------------------------------------ *)
(* Parallel CSR build: identical arrays for any pool size.  The
   parallel path only engages above the wire cutoff, so this one uses
   a deliberately large instance. *)

let test_parallel_build_identical () =
  let n = 4_000 in
  let wires = 70_000 in
  let p = Generator.default_params ~n ~wires in
  let seq = Generator.generate (Rng.create 31) p in
  with_pool 4 (fun pool ->
      let par = Generator.generate ~pool (Rng.create 31) p in
      check Alcotest.bool "netlists equal" true (Netlist.equal seq par);
      check Alcotest.bool "xadj identical" true
        (Netlist.adj_offsets seq = Netlist.adj_offsets par);
      check Alcotest.bool "anbr identical" true
        (Netlist.adj_targets seq = Netlist.adj_targets par);
      check Alcotest.bool "awgt bit-identical" true
        (Array.for_all2
           (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
           (Netlist.adj_weights seq) (Netlist.adj_weights par)))

(* ------------------------------------------------------------------ *)
(* Synthetic frontier: determinism and statistics bounds. *)

let small_synth =
  { (Synth.default ~name:"synth-test" ~n:2_000 ~seed:91) with
    Synth.avg_degree = 10.0;
    timing_density = 2.0 }

let test_synth_deterministic () =
  let a = Synth.build small_synth and b = Synth.build small_synth in
  check Alcotest.bool "same seed, identical netlist" true
    (Netlist.equal a.Circuits.netlist
       b.Circuits.netlist);
  check Alcotest.bool "identical constraints" true
    (Constraints.equal a.Circuits.constraints
       b.Circuits.constraints);
  check Alcotest.bool "identical reference" true
    (a.Circuits.reference = b.Circuits.reference);
  let c = Synth.build { small_synth with Synth.seed = 92 } in
  check Alcotest.bool "different seed, different netlist" false
    (Netlist.equal a.Circuits.netlist
       c.Circuits.netlist)

let test_synth_pool_invariant () =
  (* A pool must not change a single value, only build time. *)
  let seq = Synth.build small_synth in
  with_pool 4 (fun pool ->
      let par = Synth.build ~pool small_synth in
      check Alcotest.bool "pool-built instance identical" true
        (Netlist.equal seq.Circuits.netlist
           par.Circuits.netlist
        && Constraints.equal seq.Circuits.constraints
             par.Circuits.constraints
        && seq.Circuits.reference
           = par.Circuits.reference))

let test_synth_statistics_bounds () =
  let inst = Synth.build small_synth in
  let nl = inst.Circuits.netlist in
  let p = small_synth in
  check Alcotest.int "component count exact" p.Synth.n (Netlist.n nl);
  (* total wire weight is exact by generator contract; distinct wire
     count can only be reduced by merging parallel draws *)
  check Alcotest.bool "total wire weight = n * degree / 2" true
    (abs_float (Netlist.total_wire_weight nl -. float_of_int (Synth.wires_of p))
    < 1e-6);
  check Alcotest.bool "merged wire count near target" true
    (Netlist.wire_count nl > Synth.wires_of p * 9 / 10
    && Netlist.wire_count nl <= Synth.wires_of p);
  check Alcotest.int "timing constraint count exact" (Synth.timing_of p)
    (Constraints.count inst.Circuits.constraints);
  (* the planted reference witnesses feasibility *)
  let topo = inst.Circuits.topology in
  let reference = inst.Circuits.reference in
  let used = Array.make (Topology.m topo) 0.0 in
  Array.iteri (fun j i -> used.(i) <- used.(i) +. Netlist.size nl j) reference;
  Array.iteri
    (fun i u ->
      if u > Topology.capacity topo i +. 1e-9 then fail "reference violates capacity")
    used;
  check Alcotest.bool "reference meets every timing budget" true
    (Check.feasible inst.Circuits.constraints topo ~assignment:reference)

let test_frontier_registry () =
  check (Alcotest.list Alcotest.string) "frontier names"
    [ "synth10k"; "synth30k"; "synth100k" ] Synth.names;
  List.iter
    (fun name ->
      match Synth.find name with
      | None -> fail ("missing frontier member " ^ name)
      | Some p -> check Alcotest.string "find returns the member" name p.Synth.name)
    Synth.names;
  check Alcotest.bool "unknown name rejected" true (Synth.find "synth1m" = None)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "csr"
    [
      ( "adjacency",
        [
          qt prop_adjacency_matches_boxed;
          qt prop_connection_matches_boxed;
          Alcotest.test_case "parallel build bit-identical" `Quick
            test_parallel_build_identical;
        ] );
      ( "partners",
        [ qt prop_partner_csr_matches_reference; qt prop_duplicate_budgets_keep_min ] );
      ( "synth",
        [
          Alcotest.test_case "generator determinism" `Quick test_synth_deterministic;
          Alcotest.test_case "pool does not change values" `Quick
            test_synth_pool_invariant;
          Alcotest.test_case "statistics bounds" `Quick test_synth_statistics_bounds;
          Alcotest.test_case "frontier registry" `Quick test_frontier_registry;
        ] );
    ]
