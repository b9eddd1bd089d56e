(* Tests for the netlist substrate: RNG, components, wires, netlist
   construction, statistics, the synthetic generator, the shared line
   scanner and the textual formats. *)

open Qbpart_netlist

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  if List.equal Int.equal xs ys then fail "different seeds gave identical streams"

let test_rng_int_range () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then fail (Printf.sprintf "Rng.int out of range: %d" v)
  done

let test_rng_int_coverage () =
  let r = Rng.create 99 in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    seen.(Rng.int r 10) <- true
  done;
  Array.iteri (fun i b -> if not b then fail (Printf.sprintf "value %d never drawn" i)) seen

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then fail (Printf.sprintf "Rng.float out of range: %g" v)
  done

let test_rng_log_uniform () =
  let r = Rng.create 5 in
  let lo = 1.0 and hi = 100.0 in
  let below_10 = ref 0 in
  let total = 20_000 in
  for _ = 1 to total do
    let v = Rng.log_uniform r ~lo ~hi in
    if v < lo || v > hi then fail (Printf.sprintf "log_uniform out of range: %g" v);
    if v < 10.0 then incr below_10
  done;
  (* log-uniform on [1,100]: half the mass below the geometric mean 10 *)
  let frac = float_of_int !below_10 /. float_of_int total in
  if frac < 0.45 || frac > 0.55 then
    fail (Printf.sprintf "log_uniform not log-flat: %.3f below geometric mean" frac)

let test_rng_permutation () =
  let r = Rng.create 11 in
  let p = Rng.permutation r 50 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  if List.equal Int.equal xs ys then fail "split stream equals parent stream"

let test_rng_invalid_bound () =
  let r = Rng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

(* ------------------------------------------------------------------ *)
(* Component / Wire *)

let test_component_validation () =
  (try
     ignore (Component.make ~id:0 ~name:"x" ~size:0.0);
     fail "size 0 accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Component.make ~id:(-1) ~name:"x" ~size:1.0);
     fail "negative id accepted"
   with Invalid_argument _ -> ());
  let c = Component.make ~id:3 ~name:"alu" ~size:2.5 in
  check Alcotest.int "id" 3 (Component.id c);
  check Alcotest.string "name" "alu" (Component.name c);
  check (Alcotest.float 1e-9) "size" 2.5 (Component.size c)

let test_wire_normalization () =
  let w = Wire.make 5 2 ~weight:3.0 in
  check Alcotest.int "u" 2 (Wire.u w);
  check Alcotest.int "v" 5 (Wire.v w);
  check (Alcotest.float 1e-9) "weight" 3.0 (Wire.weight w);
  check Alcotest.int "other u" 5 (Wire.other w 2);
  check Alcotest.int "other v" 2 (Wire.other w 5)

let test_wire_validation () =
  (try
     ignore (Wire.make 1 1 ~weight:1.0);
     fail "self-loop accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Wire.make 0 1 ~weight:0.0);
     fail "zero weight accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Wire.make (-1) 1 ~weight:1.0);
    fail "negative id accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Netlist *)

let triangle () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_component b ~name:"a" ~size:1.0 () in
  let c = Netlist.Builder.add_component b ~name:"b" ~size:2.0 () in
  let d = Netlist.Builder.add_component b ~name:"c" ~size:3.0 () in
  Netlist.Builder.add_wire b a c ~weight:5.0 ();
  Netlist.Builder.add_wire b c d ~weight:2.0 ();
  Netlist.Builder.build b

let test_netlist_build () =
  let nl = triangle () in
  check Alcotest.int "n" 3 (Netlist.n nl);
  check Alcotest.int "wire pairs" 2 (Netlist.wire_count nl);
  check (Alcotest.float 1e-9) "total size" 6.0 (Netlist.total_size nl);
  check (Alcotest.float 1e-9) "total weight" 7.0 (Netlist.total_wire_weight nl);
  check (Alcotest.float 1e-9) "a-b" 5.0 (Netlist.connection nl 0 1);
  check (Alcotest.float 1e-9) "b-a" 5.0 (Netlist.connection nl 1 0);
  check (Alcotest.float 1e-9) "a-c" 0.0 (Netlist.connection nl 0 2);
  check (Alcotest.float 1e-9) "self" 0.0 (Netlist.connection nl 1 1)

let test_netlist_merge_parallel () =
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.add_component b ~size:1.0 () in
  let y = Netlist.Builder.add_component b ~size:1.0 () in
  Netlist.Builder.add_wire b x y ~weight:2.0 ();
  Netlist.Builder.add_wire b y x ~weight:3.0 ();
  let nl = Netlist.Builder.build b in
  check Alcotest.int "merged to one pair" 1 (Netlist.wire_count nl);
  check (Alcotest.float 1e-9) "summed weight" 5.0 (Netlist.connection nl x y)

let test_netlist_adjacency () =
  let nl = triangle () in
  let lo = (Netlist.adj_offsets nl).(1) and hi = (Netlist.adj_offsets nl).(2) in
  check Alcotest.int "degree of b" 2 (hi - lo);
  check Alcotest.(list (pair int (float 1e-9))) "b's neighbors"
    [ (0, 5.0); (2, 2.0) ]
    (List.init (hi - lo) (fun k ->
         ((Netlist.adj_targets nl).(lo + k), (Netlist.adj_weights nl).(lo + k))));
  check Alcotest.int "degree accessor" 2 (Netlist.degree nl 1)

let test_netlist_find_by_name () =
  let nl = triangle () in
  check Alcotest.(option int) "find b" (Some 1) (Netlist.find_by_name nl "b");
  check Alcotest.(option int) "missing" None (Netlist.find_by_name nl "zz")

let test_netlist_duplicate_name () =
  let b = Netlist.Builder.create () in
  ignore (Netlist.Builder.add_component b ~name:"x" ~size:1.0 ());
  try
    ignore (Netlist.Builder.add_component b ~name:"x" ~size:1.0 ());
    fail "duplicate name accepted"
  with Invalid_argument _ -> ()

let test_netlist_bad_wire () =
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.add_component b ~size:1.0 () in
  try
    Netlist.Builder.add_wire b x 99 ();
    fail "dangling wire accepted"
  with Invalid_argument _ -> ()

(* The built netlist owns the builder's name table, so the builder
   takes no further additions. *)
let test_netlist_builder_sealed () =
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.add_component b ~name:"x" ~size:1.0 () in
  let y = Netlist.Builder.add_component b ~name:"y" ~size:1.0 () in
  let nl = Netlist.Builder.build b in
  (try
     ignore (Netlist.Builder.add_component b ~name:"z" ~size:1.0 ());
     fail "component added after build"
   with Invalid_argument _ -> ());
  (try
     Netlist.Builder.add_wire b x y ();
     fail "wire added after build"
   with Invalid_argument _ -> ());
  check Alcotest.(option int) "names intact" None (Netlist.find_by_name nl "z")

(* A is symmetric and the CSR stores both triangles. *)
let test_netlist_connection_matrix () =
  let nl = triangle () in
  check (Alcotest.float 1e-9) "A[0][1]" 5.0 (Netlist.connection nl 0 1);
  check (Alcotest.float 1e-9) "A[1][0]" 5.0 (Netlist.connection nl 1 0);
  check Alcotest.int "nnz both triangles" 4 (Array.length (Netlist.adj_targets nl))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats () =
  let nl = triangle () in
  let s = Stats.of_netlist ~name:"tri" nl in
  check Alcotest.int "components" 3 s.Stats.components;
  check Alcotest.int "wire pairs" 2 s.Stats.wire_pairs;
  check (Alcotest.float 1e-9) "interconnections" 7.0 s.Stats.interconnections;
  check (Alcotest.float 1e-9) "size min" 1.0 s.Stats.size_min;
  check (Alcotest.float 1e-9) "size max" 3.0 s.Stats.size_max;
  check Alcotest.int "degree max" 2 s.Stats.degree_max

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_generator_exact_counts () =
  let rng = Rng.create 2024 in
  let p = Generator.default_params ~n:150 ~wires:900 in
  let nl = Generator.generate rng p in
  check Alcotest.int "n" 150 (Netlist.n nl);
  check (Alcotest.float 1e-9) "total interconnections" 900.0 (Netlist.total_wire_weight nl)

let test_generator_deterministic () =
  let p = Generator.default_params ~n:60 ~wires:200 in
  let a = Generator.generate (Rng.create 5) p in
  let b = Generator.generate (Rng.create 5) p in
  check Alcotest.bool "same circuit from same seed" true (Netlist.equal a b)

let test_generator_seed_changes_circuit () =
  let p = Generator.default_params ~n:60 ~wires:200 in
  let a = Generator.generate (Rng.create 5) p in
  let b = Generator.generate (Rng.create 6) p in
  check Alcotest.bool "different seeds differ" false (Netlist.equal a b)

let test_generator_size_span () =
  let rng = Rng.create 1 in
  let p = Generator.default_params ~n:400 ~wires:2000 in
  let nl = Generator.generate rng p in
  let s = Stats.of_netlist nl in
  let span = Stats.size_span_orders s in
  if span < 1.5 then fail (Printf.sprintf "size span too small: %.2f orders" span)

let test_generator_no_self_loops () =
  let rng = Rng.create 9 in
  let p = Generator.default_params ~n:50 ~wires:500 in
  let nl = Generator.generate rng p in
  Array.iter
    (fun w -> if Wire.u w = Wire.v w then fail "self loop in generated netlist")
    (Netlist.wires nl)

let test_generator_locality () =
  (* With locality 1.0 every wire must stay inside a hidden cluster. *)
  let p = { (Generator.default_params ~n:100 ~wires:400) with Generator.locality = 1.0 } in
  let rng = Rng.create 31 in
  let labels = Generator.hidden_clusters (Rng.copy rng) p in
  let nl = Generator.generate rng p in
  Array.iter
    (fun w ->
      if labels.(Wire.u w) <> labels.(Wire.v w) then fail "inter-cluster wire at locality 1.0")
    (Netlist.wires nl)

let test_generator_validation () =
  let rng = Rng.create 0 in
  try
    ignore (Generator.generate rng (Generator.default_params ~n:1 ~wires:10));
    fail "n=1 accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Parser / Printer *)

let test_parse_basic () =
  let src =
    "# a comment\n\
     component alu 10.5\n\
     component rom 3\n\
     wire alu rom 2\n\
     wire alu rom\n"
  in
  match Parser.parse_string src with
  | Error e -> fail (Parser.error_to_string e)
  | Ok nl ->
    check Alcotest.int "n" 2 (Netlist.n nl);
    check (Alcotest.float 1e-9) "merged weight" 3.0 (Netlist.connection nl 0 1);
    check (Alcotest.float 1e-9) "size" 10.5 (Netlist.size nl 0)

let expect_parse_error src expected_line =
  match Parser.parse_string src with
  | Ok _ -> fail "parse succeeded on bad input"
  | Error e -> check Alcotest.int "error line" expected_line e.Parser.line

let test_parse_errors () =
  expect_parse_error "component x\n" 1;
  expect_parse_error "component x 1\nwire x y\n" 2;
  expect_parse_error "component x 1\ncomponent x 2\n" 2;
  expect_parse_error "component x 0\n" 1;
  expect_parse_error "component x 1\nwire x x\n" 2;
  expect_parse_error "frobnicate\n" 1;
  expect_parse_error "component x 1\ncomponent y 1\nwire x y -2\n" 3

let test_parse_comments_and_blanks () =
  let src = "\n  # only comments\n; semicolon comment\ncomponent a 1 # trailing\n" in
  match Parser.parse_string src with
  | Error e -> fail (Parser.error_to_string e)
  | Ok nl -> check Alcotest.int "n" 1 (Netlist.n nl)

let test_roundtrip_triangle () =
  let nl = triangle () in
  match Parser.parse_string (Printer.to_string nl) with
  | Error e -> fail (Parser.error_to_string e)
  | Ok nl' -> check Alcotest.bool "roundtrip equal" true (Netlist.equal nl nl')

(* qcheck: printer/parser round trip on generated circuits *)
let prop_roundtrip =
  QCheck.Test.make ~name:"parser/printer round-trip on generated circuits" ~count:30
    QCheck.(pair (int_range 2 40) (int_range 0 120))
    (fun (n, wires) ->
      let rng = Rng.create ((n * 1000) + wires) in
      let p = Generator.default_params ~n ~wires in
      let nl = Generator.generate rng p in
      match Parser.parse_string (Printer.to_string nl) with
      | Error _ -> false
      | Ok nl' -> Netlist.equal nl nl')

let prop_generator_counts =
  QCheck.Test.make ~name:"generator hits requested totals" ~count:30
    QCheck.(pair (int_range 2 50) (int_range 0 300))
    (fun (n, wires) ->
      let rng = Rng.create (n + (wires * 7919)) in
      let nl = Generator.generate rng (Generator.default_params ~n ~wires) in
      Netlist.n nl = n && Netlist.total_wire_weight nl = float_of_int wires)

(* qcheck fuzz: the netlist and delta readers are total (see
   Totality). *)
let parser_fuzz =
  Totality.props ~what:"parser" ~words:[ "component"; "wire"; "c0"; "c1" ]
    ~printed:(fun ~n ~seed ->
      let rng = Rng.create (n + (seed * 31)) in
      Printer.to_string (Generator.generate rng (Generator.default_params ~n ~wires:(n * 3))))
    (fun s -> match Parser.parse_string s with Ok _ -> None | Error e -> Some e.Parser.line)

let random_delta ~n ~seed =
  let rng = Rng.create (n + (seed * 31)) in
  let name () = Printf.sprintf "c%d" (Rng.int rng n) in
  let number () = float_of_int (1 + Rng.int rng 9) /. 2.0 in
  List.init (1 + Rng.int rng 12) (fun _ ->
      match Rng.int rng 5 with
      | 0 ->
        Delta.Add_component { name = Printf.sprintf "new%d" (Rng.int rng 100); size = number () }
      | 1 -> Delta.Remove_component { name = name () }
      | 2 -> Delta.Add_wire { u = name (); v = name (); weight = number () }
      | 3 -> Delta.Remove_wire { u = name (); v = name () }
      | _ -> Delta.Retime { src = name (); dst = name (); budget = number () })

let delta_fuzz =
  Totality.props ~what:"delta parser"
    ~words:[ "add"; "remove"; "wire"; "unwire"; "retime"; "c0"; "c1" ]
    ~printed:(fun ~n ~seed -> Delta.to_string (random_delta ~n ~seed))
    (fun s -> match Delta.parse_string s with Ok _ -> None | Error e -> Some e.Delta.at)

let prop_delta_roundtrip =
  QCheck.Test.make ~name:"delta: parse (to_string ops) = ops" ~count:100
    QCheck.(pair (int_range 2 20) (int_range 0 1000))
    (fun (n, seed) ->
      let ops = random_delta ~n ~seed in
      Delta.parse_string (Delta.to_string ops) = Ok ops)

(* [Delta.apply] against a name-keyed list model of the edit.  The
   model keeps (name, size, old id or -1) per component in id order,
   one entry per wired name pair and the retimes in op order. *)
type model = {
  comps : (string * float * int) list;
  wires : ((string * string) * float) list;
  budgets : (string * string * float) list;
}

exception Rejected of Delta.error

let name_pair a b = if a < b then (a, b) else (b, a)

let model_of nl =
  let name j = Component.name (Netlist.component nl j) in
  {
    comps = List.init (Netlist.n nl) (fun j -> (name j, Netlist.size nl j, j));
    wires =
      Netlist.fold_wires nl ~init:[] ~f:(fun acc w ->
          (name_pair (name (Wire.u w)) (name (Wire.v w)), Wire.weight w) :: acc);
    budgets = [];
  }

let model_op m at op =
  let reject fmt =
    let what = String.trim (Delta.to_string [ op ]) in
    Printf.ksprintf (fun reason -> raise (Rejected { Delta.at; what; reason })) fmt
  in
  let exists name = List.exists (fun (c, _, _) -> c = name) m.comps in
  let known name = if not (exists name) then reject "unknown component %S" name in
  let positive what x =
    if not (Float.is_finite x && x > 0.0) then reject "%s must be finite and > 0 (got %g)" what x
  in
  let pair u v =
    known u;
    known v;
    if u = v then reject "self-loop on component %S" u;
    name_pair u v
  in
  match op with
  | Delta.Add_component { name; size } ->
    if exists name then reject "duplicate component name %S" name;
    positive "component size" size;
    { m with comps = m.comps @ [ (name, size, -1) ] }
  | Remove_component { name } ->
    known name;
    let keeps (a, b) = a <> name && b <> name in
    {
      comps = List.filter (fun (c, _, _) -> c <> name) m.comps;
      wires = List.filter (fun (k, _) -> keeps k) m.wires;
      budgets = List.filter (fun (a, b, _) -> keeps (a, b)) m.budgets;
    }
  | Add_wire { u; v; weight } ->
    let k = pair u v in
    positive "wire weight" weight;
    let w = Option.value (List.assoc_opt k m.wires) ~default:0.0 in
    { m with wires = (k, w +. weight) :: List.remove_assoc k m.wires }
  | Remove_wire { u; v } ->
    let k = pair u v in
    if not (List.mem_assoc k m.wires) then reject "no wire between %S and %S" u v;
    { m with wires = List.remove_assoc k m.wires }
  | Retime { src; dst; budget } ->
    known src;
    known dst;
    if src = dst then reject "self-loop timing budget on component %S" src;
    positive "timing budget" budget;
    { m with budgets = m.budgets @ [ (src, dst, budget) ] }

(* What the comparison reads, floats as bits: names and sizes in id
   order, wires by name pair, the id maps, retimes and dims_changed. *)
type view = {
  v_comps : (string * int64) list;
  v_wires : ((string * string) * int64) list;
  v_new_of_old : int array;
  v_old_of_new : int array;
  v_retimes : (int * int * int64) list;
  v_dims_changed : bool;
}

let bits = Int64.bits_of_float

let view_of_applied (a : Delta.applied) =
  let nl = a.Delta.netlist in
  let name j = Component.name (Netlist.component nl j) in
  {
    v_comps = List.init (Netlist.n nl) (fun j -> (name j, bits (Netlist.size nl j)));
    v_wires =
      List.sort compare
        (Netlist.fold_wires nl ~init:[] ~f:(fun acc w ->
             (name_pair (name (Wire.u w)) (name (Wire.v w)), bits (Wire.weight w)) :: acc));
    v_new_of_old = a.Delta.new_of_old;
    v_old_of_new = a.Delta.old_of_new;
    v_retimes = List.map (fun (s, d, b) -> (s, d, bits b)) a.Delta.retimes;
    v_dims_changed = a.Delta.dims_changed;
  }

let model_apply nl ops =
  match List.fold_left (fun (at, m) op -> (at + 1, model_op m at op)) (1, model_of nl) ops with
  | exception Rejected e -> Error e
  | _, m ->
    let ids = List.mapi (fun j (c, _, _) -> (c, j)) m.comps in
    let old_of_new = Array.of_list (List.map (fun (_, _, o) -> o) m.comps) in
    let new_of_old = Array.make (Netlist.n nl) (-1) in
    Array.iteri (fun j o -> if o >= 0 then new_of_old.(o) <- j) old_of_new;
    Ok
      {
        v_comps = List.map (fun (c, size, _) -> (c, bits size)) m.comps;
        v_wires = List.sort compare (List.map (fun (k, w) -> (k, bits w)) m.wires);
        v_new_of_old = new_of_old;
        v_old_of_new = old_of_new;
        v_retimes =
          List.map (fun (s, d, b) -> (List.assoc s ids, List.assoc d ids, bits b)) m.budgets;
        v_dims_changed = Array.length old_of_new <> Netlist.n nl || Array.mem (-1) new_of_old;
      }

(* 2-13 components and up to 3n wires, parallel ones included, all
   with fractional sizes and weights. *)
let random_netlist rng =
  let n = 2 + Rng.int rng 12 in
  let b = Netlist.Builder.create () in
  for _ = 1 to n do
    ignore (Netlist.Builder.add_component b ~size:(0.1 +. Rng.float rng 2.0) () : int)
  done;
  for _ = 1 to Rng.int rng (3 * n) do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then Netlist.Builder.add_wire b u v ~weight:(0.1 +. Rng.float rng 2.0) ()
  done;
  Netlist.Builder.build b

(* Ops of all five kinds against [nl]: mostly its own names and wires,
   some unknown or new names and invalid numbers; one delta in four
   only retimes. *)
let random_ops rng nl =
  let n = Netlist.n nl in
  let name () =
    match Rng.int rng 8 with
    | 0 -> Printf.sprintf "new%d" (Rng.int rng 3)
    | 1 -> Printf.sprintf "c%d" (Rng.int rng 16)
    | _ when n = 0 -> "c0"
    | _ -> Component.name (Netlist.component nl (Rng.int rng n))
  in
  let pair () =
    if Netlist.wire_count nl > 0 && Rng.int rng 2 = 0 then begin
      let w = (Netlist.wires nl).(Rng.int rng (Netlist.wire_count nl)) in
      let name j = Component.name (Netlist.component nl j) in
      (name (Wire.u w), name (Wire.v w))
    end
    else
      let u = name () in
      (u, name ())
  in
  let number () =
    match Rng.int rng 16 with
    | 0 -> 0.0
    | 1 -> -1.5
    | 2 -> Float.nan
    | 3 -> Float.infinity
    | _ -> 0.1 +. Rng.float rng 3.0
  in
  let retimes_only = Rng.int rng 4 = 0 in
  List.init (1 + Rng.int rng 6) (fun _ ->
      match if retimes_only then 4 else Rng.int rng 5 with
      | 0 ->
        let name = name () in
        Delta.Add_component { name; size = number () }
      | 1 -> Delta.Remove_component { name = name () }
      | 2 ->
        let u, v = pair () in
        Delta.Add_wire { u; v; weight = number () }
      | 3 ->
        let u, v = pair () in
        Delta.Remove_wire { u; v }
      | _ ->
        let src, dst = pair () in
        Delta.Retime { src; dst; budget = number () })

let is_retime = function Delta.Retime _ -> true | _ -> false

(* Two deltas in a chain: the second edits the first one's result. *)
let prop_delta_apply_model =
  QCheck.Test.make ~name:"delta: apply equals a name-keyed list model" ~count:5000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let step nl =
        let ops = random_ops rng nl in
        let got = Delta.apply nl ops in
        if Result.map view_of_applied got <> model_apply nl ops then
          QCheck.Test.fail_reportf "seed %d: delta\n%son\n%sdiffers from the model" seed
            (Delta.to_string ops) (Printer.to_string nl);
        match got with
        | Ok a when List.for_all is_retime ops && a.Delta.netlist != nl ->
          QCheck.Test.fail_reportf "seed %d: a retime-only delta rebuilt the netlist" seed
        | Ok a -> Some a.Delta.netlist
        | Error _ -> None
      in
      ignore (Option.map step (step (random_netlist rng)) : _ option option);
      true)

let test_delta_retimes_keep_netlist () =
  let nl = Generator.generate (Rng.create 3) (Generator.default_params ~n:30 ~wires:90) in
  let ops = [ Delta.Retime { src = "c0"; dst = "c1"; budget = 2.0 } ] in
  match Delta.apply nl ops with
  | Error e -> fail (Delta.error_to_string e)
  | Ok a ->
    check Alcotest.bool "same netlist value" true (a.Delta.netlist == nl);
    check Alcotest.bool "dims unchanged" false a.Delta.dims_changed;
    check Alcotest.(array int) "identity map" (Array.init 30 Fun.id) a.Delta.new_of_old

(* Parallel wires are summed from 0 in the builder's order, reverse
   file order when parsed; file order gives a different float here. *)
let weight_bits nl = Int64.bits_of_float (Netlist.connection nl 0 1)

let test_parse_merge_order () =
  match
    Parser.parse_string
      "component a 1\ncomponent b 1\nwire a b 0.1\nwire b a 0.2\nwire a b 0.3\n"
  with
  | Error e -> fail (Parser.error_to_string e)
  | Ok nl ->
    check Alcotest.int64 "reverse file order" (Int64.bits_of_float ((0.3 +. 0.2) +. 0.1))
      (weight_bits nl)

(* The line grammar as each reader used to spell it out: cut at the
   first '#' or ';', split on spaces and tabs, drop one trailing '\r'
   per piece, drop empty pieces.  Scan must agree on every input. *)
let reference_tokens line =
  let cut c s = match String.index_opt s c with Some i -> String.sub s 0 i | None -> s in
  cut ';' (cut '#' line)
  |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.map (fun t ->
         let l = String.length t in
         if l > 0 && t.[l - 1] = '\r' then String.sub t 0 (l - 1) else t)
  |> List.filter (( <> ) "")

let scanned s =
  let sc = Scan.of_string s in
  let rec go acc =
    if Scan.next sc then
      go ((Scan.line sc, Scan.line_text sc, List.init (Scan.count sc) (Scan.token sc)) :: acc)
    else List.rev acc
  in
  go []

let prop_scan_matches_reference =
  QCheck.Test.make ~name:"scan: lines and tokens match the split grammar" ~count:1000
    QCheck.(
      string_gen
        (Gen.oneof [ Gen.oneofl [ ' '; '\t'; '\r'; '\n'; '#'; ';'; 'a'; '1' ]; Gen.char ]))
    (fun s ->
      scanned s
      = List.mapi (fun i l -> (i + 1, l, reference_tokens l)) (String.split_on_char '\n' s))

let prop_scan_float_matches_stdlib =
  let open QCheck.Gen in
  let digits lo hi = string_size ~gen:(char_range '0' '9') (int_range lo hi) in
  let opt g = oneof [ return ""; g ] in
  let sign = opt (oneofl [ "-"; "+" ]) in
  let decimal =
    map (String.concat "")
      (flatten_l
         [
           sign;
           digits 0 17;
           opt (map (( ^ ) ".") (digits 0 17));
           opt (map3 (fun e s d -> e ^ s ^ d) (oneofl [ "e"; "E" ]) sign (digits 0 3));
         ])
  in
  let junk =
    string_size ~gen:(oneofl [ '0'; '1'; '9'; '.'; 'e'; 'E'; '+'; '-'; '_'; 'x'; 'p'; 'n' ])
      (int_range 1 8)
  in
  QCheck.Test.make ~name:"scan: float reads a token as float_of_string_opt" ~count:3000
    (QCheck.make ~print:Fun.id (oneof [ decimal; junk ]))
    (fun tok ->
      let sc = Scan.of_string tok in
      ignore (Scan.next sc : bool);
      Scan.count sc <> 1
      ||
      match (Scan.float sc 0, float_of_string_opt tok) with
      | Some a, Some b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
      | None, None -> true
      | _ -> false)

let test_parse_file_missing () =
  (match Parser.parse_file "/nonexistent/qbpart-no-such-file.net" with
  | Error (`Io _) -> ()
  | Error (`Parse _) -> fail "missing file reported as a parse error"
  | Ok _ -> fail "parsed a nonexistent file");
  (* a directory is readable as a path but not as a file *)
  match Parser.parse_file "." with
  | Error (`Io _) -> ()
  | Error (`Parse _) -> fail "directory reported as a parse error"
  | Ok _ -> fail "parsed a directory"

let test_parse_crlf_and_nonfinite () =
  (match Parser.parse_string "component a 1\r\ncomponent b 2\r\nwire a b 3\r\n" with
  | Ok nl -> check Alcotest.int "crlf n" 2 (Netlist.n nl)
  | Error e -> fail (Parser.error_to_string e));
  expect_parse_error "component a inf\n" 1;
  expect_parse_error "component a nan\n" 1;
  expect_parse_error "component a 1\ncomponent b 1\nwire a b inf\n" 3

let prop_adjacency_symmetric =
  QCheck.Test.make ~name:"connection is symmetric" ~count:30
    QCheck.(int_range 2 30)
    (fun n ->
      let rng = Rng.create (n * 13) in
      let nl = Generator.generate rng (Generator.default_params ~n ~wires:(n * 3)) in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Netlist.connection nl a b <> Netlist.connection nl b a then ok := false
        done
      done;
      !ok)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "netlist"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int coverage" `Quick test_rng_int_coverage;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "log uniform" `Quick test_rng_log_uniform;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "invalid bound" `Quick test_rng_invalid_bound;
        ] );
      ( "component-wire",
        [
          Alcotest.test_case "component validation" `Quick test_component_validation;
          Alcotest.test_case "wire normalization" `Quick test_wire_normalization;
          Alcotest.test_case "wire validation" `Quick test_wire_validation;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "build" `Quick test_netlist_build;
          Alcotest.test_case "merge parallel wires" `Quick test_netlist_merge_parallel;
          Alcotest.test_case "adjacency" `Quick test_netlist_adjacency;
          Alcotest.test_case "find by name" `Quick test_netlist_find_by_name;
          Alcotest.test_case "duplicate name rejected" `Quick test_netlist_duplicate_name;
          Alcotest.test_case "dangling wire rejected" `Quick test_netlist_bad_wire;
          Alcotest.test_case "builder sealed by build" `Quick test_netlist_builder_sealed;
          Alcotest.test_case "connection matrix" `Quick test_netlist_connection_matrix;
        ] );
      ("stats", [ Alcotest.test_case "of_netlist" `Quick test_stats ]);
      ( "generator",
        [
          Alcotest.test_case "exact counts" `Quick test_generator_exact_counts;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "seed changes circuit" `Quick test_generator_seed_changes_circuit;
          Alcotest.test_case "size span" `Quick test_generator_size_span;
          Alcotest.test_case "no self loops" `Quick test_generator_no_self_loops;
          Alcotest.test_case "locality" `Quick test_generator_locality;
          Alcotest.test_case "validation" `Quick test_generator_validation;
        ] );
      ( "format",
        [
          Alcotest.test_case "parse basic" `Quick test_parse_basic;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "comments and blanks" `Quick test_parse_comments_and_blanks;
          Alcotest.test_case "roundtrip triangle" `Quick test_roundtrip_triangle;
          Alcotest.test_case "file errors are Io" `Quick test_parse_file_missing;
          Alcotest.test_case "crlf and non-finite" `Quick test_parse_crlf_and_nonfinite;
          Alcotest.test_case "parallel wires sum in reverse file order" `Quick
            test_parse_merge_order;
        ] );
      ("scan", [ q prop_scan_matches_reference; q prop_scan_float_matches_stdlib ]);
      ( "delta",
        [
          Alcotest.test_case "retimes keep the netlist" `Quick test_delta_retimes_keep_netlist;
          q prop_delta_apply_model;
        ] );
      ( "properties",
        [
          q prop_roundtrip;
          q prop_generator_counts;
          q prop_adjacency_symmetric;
          q prop_delta_roundtrip;
        ] );
      ( "fuzz",
        List.map q (parser_fuzz @ delta_fuzz) );
    ]
