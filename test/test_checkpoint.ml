(* Checkpoint durability tests: lossless encode/decode round-trips on
   arbitrary states (qcheck), rejection of truncated/corrupt files and
   instance-hash mismatches, and the atomic save/load path. *)

module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Generator = Qbpart_netlist.Generator
module Grid = Qbpart_topology.Grid
module Constraints = Qbpart_timing.Constraints
module Problem = Qbpart_core.Problem
module Checkpoint = Qbpart_engine.Checkpoint
module Circuits = Qbpart_experiments.Circuits
module Delta = Qbpart_netlist.Delta

let check = Alcotest.check
let fail = Alcotest.fail

let random_problem seed =
  let rng = Rng.create seed in
  let n = 6 + Rng.int rng 10 in
  let nl = Generator.generate rng (Generator.default_params ~n ~wires:(2 * n)) in
  let capacity = Netlist.total_size nl /. 4.0 *. 1.5 in
  let topo = Grid.make ~rows:2 ~cols:2 ~capacity () in
  let cons = Constraints.Builder.create ~n in
  for _ = 1 to n / 2 do
    let j1 = Rng.int rng n and j2 = Rng.int rng n in
    if j1 <> j2 then Constraints.Builder.add cons j1 j2 (float_of_int (1 + Rng.int rng 2))
  done;
  Problem.make ~constraints:(Constraints.Builder.build cons) nl topo

(* An arbitrary checkpoint value, with awkward floats (negative zero,
   tiny/huge magnitudes, non-dyadic decimals) and awkward failure
   strings (newlines, percent signs) to stress the codec. *)
let gen_checkpoint =
  QCheck.Gen.(
    let float_gen =
      oneof
        [
          float;
          oneofl [ 0.0; -0.0; 1e-300; 1e300; 0.1; -0.1; 1.0 /. 3.0; 128.0 ];
        ]
    in
    let progress =
      map
        (fun (start, seed, attempts, (fc, fail_msg)) ->
          {
            Checkpoint.start;
            seed;
            attempts = 1 + abs attempts;
            feasible_cost = fc;
            failure = fail_msg;
          })
        (quad small_nat int small_nat
           (pair (opt float_gen)
              (opt (oneofl [ "boom"; "line1\nline2"; "100% bad"; "spaces  inside" ]))))
    in
    let fingerprint =
      map
        (fun (n, m, wires, weight) ->
          { Checkpoint.fp_n = n; fp_m = m; fp_wires = wires; fp_weight = weight })
        (quad small_nat small_nat small_nat float_gen)
    in
    map
      (fun ((hash, fingerprint), seed, elapsed, (cost, incumbent, starts, incumbent_start)) ->
        {
          Checkpoint.instance_hash = Int64.of_int hash;
          fingerprint;
          base_seed = seed;
          elapsed = Float.abs elapsed;
          incumbent = Array.of_list incumbent;
          incumbent_cost = cost;
          incumbent_start;
          starts;
        })
      (quad
         (pair int (opt fingerprint))
         int float_gen
         (quad float_gen (list_size (int_bound 40) small_nat) (list_size (int_bound 5) progress)
            (int_range (-1) 12))))

let arbitrary_checkpoint = QCheck.make gen_checkpoint

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips exactly" ~count:200
    arbitrary_checkpoint (fun cp ->
      match Checkpoint.of_string (Checkpoint.to_string cp) with
      | Error _ -> false
      | Ok cp' ->
        (* bit-exact floats: compare via Int64 bits so -0.0 and NaN-free
           equality are both handled *)
        let feq a b = Int64.bits_of_float a = Int64.bits_of_float b in
        cp'.Checkpoint.instance_hash = cp.Checkpoint.instance_hash
        && (match (cp'.Checkpoint.fingerprint, cp.Checkpoint.fingerprint) with
           | None, None -> true
           | Some a, Some b -> Checkpoint.fingerprint_equal a b
           | _ -> false)
        && cp'.Checkpoint.base_seed = cp.Checkpoint.base_seed
        && feq cp'.Checkpoint.elapsed cp.Checkpoint.elapsed
        && feq cp'.Checkpoint.incumbent_cost cp.Checkpoint.incumbent_cost
        && cp'.Checkpoint.incumbent_start = cp.Checkpoint.incumbent_start
        && cp'.Checkpoint.incumbent = cp.Checkpoint.incumbent
        && List.length cp'.Checkpoint.starts = List.length cp.Checkpoint.starts
        && List.for_all2
             (fun (a : Checkpoint.start_progress) (b : Checkpoint.start_progress) ->
               a.Checkpoint.start = b.Checkpoint.start
               && a.Checkpoint.seed = b.Checkpoint.seed
               && a.Checkpoint.attempts = b.Checkpoint.attempts
               && (match (a.Checkpoint.feasible_cost, b.Checkpoint.feasible_cost) with
                  | None, None -> true
                  | Some x, Some y -> feq x y
                  | _ -> false)
               && a.Checkpoint.failure = b.Checkpoint.failure)
             cp.Checkpoint.starts cp'.Checkpoint.starts)

let prop_truncation_rejected =
  QCheck.Test.make ~name:"every truncation is rejected, never misread" ~count:60
    arbitrary_checkpoint (fun cp ->
      let full = Checkpoint.to_string cp in
      (* chop whole lines off the end: each prefix must fail to parse
         (the [end] trailer guarantees self-delimitation) *)
      let lines = String.split_on_char '\n' full in
      let n = List.length lines in
      let ok = ref true in
      for keep = 0 to n - 2 do
        let prefix =
          String.concat "\n" (List.filteri (fun i _ -> i < keep) lines)
        in
        match Checkpoint.of_string prefix with
        | Ok _ -> ok := false
        | Error (Checkpoint.Corrupt _) -> ()
        | Error _ -> ok := false
      done;
      !ok)

let test_corrupt_rejection () =
  let reject what text expect =
    match Checkpoint.of_string text with
    | Ok _ -> fail (what ^ ": accepted")
    | Error e -> (
      match (e, expect) with
      | Checkpoint.Corrupt _, `Corrupt | Checkpoint.Unsupported_version _, `Version -> ()
      | _ -> fail (what ^ ": wrong error " ^ Checkpoint.error_to_string e))
  in
  reject "empty" "" `Corrupt;
  reject "garbage" "not a checkpoint\n" `Corrupt;
  reject "future version" "qbpart-checkpoint 99\n" `Version;
  reject "bad hash" "qbpart-checkpoint 1\nhash zz\n" `Corrupt;
  reject "negative elapsed"
    "qbpart-checkpoint 1\nhash ff\nseed 1\nelapsed -1.0\n" `Corrupt;
  reject "assignment length lies"
    "qbpart-checkpoint 1\nhash ff\nseed 1\nelapsed 0x1p0\ncost 0x1p0\nstarts 0\n\
     assignment 3\n1 2\nend\n"
    `Corrupt;
  reject "missing trailer"
    "qbpart-checkpoint 1\nhash ff\nseed 1\nelapsed 0x1p0\ncost 0x1p0\nstarts 0\n\
     assignment 2\n1 2\nnot-end\n"
    `Corrupt;
  (* a failure message's '%' must start two hex digits, at its line *)
  List.iter
    (fun failure ->
      let text =
        "qbpart-checkpoint 2\nhash ff\nseed 1\nelapsed 0x1p0\ncost 0x1p0\nwinner 0\n\
         starts 1\nstart 0 1 1 - " ^ failure ^ "\nassignment 0\nend\n"
      in
      match Checkpoint.of_string text with
      | Error (Checkpoint.Corrupt { line = 8; _ }) -> ()
      | Ok _ -> fail (failure ^ ": accepted")
      | Error e -> fail (failure ^ ": wrong error " ^ Checkpoint.error_to_string e))
    [ "!%zzx"; "!%_1"; "!ab%4"; "!%" ]

(* qcheck fuzz: the checkpoint reader is total (see Totality).  A
   version it does not read carries no line; it counts as line 1. *)
let printed_checkpoint ~n ~seed =
  Checkpoint.to_string
    {
      Checkpoint.instance_hash = Int64.of_int (seed * 7919);
      fingerprint =
        Some { Checkpoint.fp_n = n; fp_m = 4; fp_wires = 2 * n; fp_weight = 0.5 *. float_of_int n };
      base_seed = seed;
      elapsed = 1.5;
      incumbent = Array.init n (fun j -> (j + seed) mod 4);
      incumbent_cost = float_of_int (seed + n);
      incumbent_start = 0;
      starts =
        [
          { Checkpoint.start = 0; seed; attempts = 1; feasible_cost = Some 12.5; failure = None };
          {
            Checkpoint.start = 1;
            seed = seed + 1;
            attempts = 2;
            feasible_cost = None;
            failure = Some "100% bad\nmove";
          };
        ];
    }

let checkpoint_fuzz =
  Totality.props ~what:"checkpoint reader"
    ~words:
      [ "qbpart-checkpoint"; "3"; "hash"; "fingerprint"; "seed"; "elapsed"; "cost"; "winner";
        "starts"; "start"; "assignment"; "end"; "-"; "!%zz"; "0x1p0" ]
    ~printed:printed_checkpoint
    (fun s ->
      match Checkpoint.of_string s with
      | Ok _ -> None
      | Error (Checkpoint.Corrupt { line; _ }) -> Some line
      | Error (Checkpoint.Unsupported_version _) -> Some 1
      | Error _ -> Some 0)

(* Instance hashes pinned at literal values: they walk every budget in
   the store's order, so a change to that order or to the tighter-kept
   rule changes them. *)
let test_table1_hashes_pinned () =
  List.iter2
    (fun spec expect ->
      let inst = Circuits.build spec in
      check Alcotest.string spec.Circuits.name expect
        (Printf.sprintf "%Lx" (Checkpoint.instance_hash (Circuits.problem inst))))
    Circuits.table1
    [
      "c12c73d21ea32068"; "a76171b7ea8a6aaf"; "76bf344d9ec124cc"; "6010d44e8dabbb00";
      "2215d78520a8cf5b"; "1a323910ad153575"; "202b2e6799c2744c";
    ]

let test_delta_hash_pinned () =
  let inst = Circuits.build (List.hd Circuits.table1) in
  let delta =
    match
      Delta.parse_string
        "retime ckta_c0 ckta_c1 0.5\nretime ckta_c2 ckta_c3 9.0\nremove ckta_c4\n\
         wire ckta_c5 ckta_c6 1.5\n"
    with
    | Ok d -> d
    | Error e -> fail (Delta.error_to_string e)
  in
  match Problem.apply_delta (Circuits.problem inst) delta with
  | Error e -> fail (Delta.error_to_string e)
  | Ok dr ->
    let p = dr.Problem.dr_problem in
    check Alcotest.int "budgets" 3432 (Constraints.count p.Problem.constraints);
    check Alcotest.string "hash" "3757d67ac9b019f6"
      (Printf.sprintf "%Lx" (Checkpoint.instance_hash p))

(* Instance hashes pinned at literal values for the shapes the Table I
   pins skip: a scaled P with its normalized copy, no budgets, one
   partition, a component without wires, and an ECO edit that adds and
   removes components. *)
let hash_pin_problems () =
  let base = random_problem 5 in
  let nl = base.Problem.netlist and topo = base.Problem.topology in
  let n = Problem.n base and m = Problem.m base in
  let p =
    Array.init m (fun i ->
        Array.init n (fun j -> (0.3 *. float_of_int (((3 * i) + (5 * j)) mod 7)) -. 1.0))
  in
  let scaled =
    Problem.make ~alpha:2.5 ~beta:0.5 ~p ~constraints:base.Problem.constraints nl topo
  in
  let isolated =
    let b = Netlist.Builder.create () in
    List.iter
      (fun size -> ignore (Netlist.Builder.add_component b ~size ()))
      [ 1.5; 2.0; 0.75; 3.0; 1.0 ];
    Netlist.Builder.add_wire b 0 1 ~weight:2.0 ();
    Netlist.Builder.add_wire b 4 1 ~weight:0.5 ();
    Netlist.Builder.add_wire b 3 4 ();
    Problem.make (Netlist.Builder.build b) (Grid.make ~rows:1 ~cols:2 ~capacity:5.0 ())
  in
  let edited =
    match
      Delta.parse_string "add x 2.0\nwire x c1 3\nremove c2\nadd y 0.5\nretime y c4 2\n"
    with
    | Error e -> fail (Delta.error_to_string e)
    | Ok d -> (
      match Problem.apply_delta base d with
      | Ok dr -> dr.Problem.dr_problem
      | Error e -> fail (Delta.error_to_string e))
  in
  [
    ("P, alpha 2.5, beta 0.5", scaled);
    ("normalized", Problem.normalize scaled);
    ("no budgets", Problem.make nl topo);
    ("m = 1", Problem.make nl (Grid.make ~rows:1 ~cols:1 ~capacity:(Netlist.total_size nl) ()));
    ("a component with no wires", isolated);
    ("ECO add and remove", edited);
  ]

let test_shape_hashes_pinned () =
  List.iter2
    (fun (name, p) expect ->
      check Alcotest.string name expect (Printf.sprintf "%Lx" (Checkpoint.instance_hash p)))
    (hash_pin_problems ())
    [
      "f1d404bce2bc8328"; "52f5bba7fdaf8f6a"; "35f64bfec72aaf5f"; "122e56daab2b0c7e";
      "8c80a3b05369aa2c"; "cb32860a667d23ea";
    ]

let test_v1_compat () =
  (* a version-1 file (no [winner] line) still loads; the unknown
     incumbent provenance decodes as -1, the always-wins sentinel *)
  let v1 =
    "qbpart-checkpoint 1\nhash ff\nseed 9\nelapsed 0x1p0\ncost 0x1.8p3\nstarts 0\n\
     assignment 2\n1 0\nend\n"
  in
  (match Checkpoint.of_string v1 with
  | Ok cp ->
    check Alcotest.int "v1 incumbent_start" (-1) cp.Checkpoint.incumbent_start;
    check Alcotest.int "v1 seed" 9 cp.Checkpoint.base_seed
  | Error e -> fail ("v1 rejected: " ^ Checkpoint.error_to_string e));
  (* a v1 file must not smuggle a winner line *)
  match
    Checkpoint.of_string
      "qbpart-checkpoint 1\nhash ff\nseed 9\nelapsed 0x1p0\ncost 0x1.8p3\nwinner 2\n\
       starts 0\nassignment 2\n1 0\nend\n"
  with
  | Ok _ -> fail "v1 with winner line accepted"
  | Error (Checkpoint.Corrupt _) -> ()
  | Error e -> fail ("wrong error: " ^ Checkpoint.error_to_string e)

let test_instance_hash_and_validate () =
  let p1 = random_problem 1 and p2 = random_problem 2 in
  let h1 = Checkpoint.instance_hash p1 in
  check Alcotest.bool "hash is deterministic" true
    (Int64.equal h1 (Checkpoint.instance_hash p1));
  check Alcotest.bool "different instances hash differently" false
    (Int64.equal h1 (Checkpoint.instance_hash p2));
  let n = Problem.n p1 in
  let cp =
    Checkpoint.make ~hash:h1 ~problem:p1 ~base_seed:7 ~elapsed:1.5 ~incumbent:(Array.make n 0)
      ~incumbent_cost:12.0 ~starts:[] ()
  in
  (match Checkpoint.validate ~hash:h1 cp p1 with
  | Ok () -> ()
  | Error e -> fail ("own instance rejected: " ^ Checkpoint.error_to_string e));
  match Checkpoint.validate ~hash:(Checkpoint.instance_hash p2) cp p2 with
  | Ok () -> fail "foreign instance accepted"
  | Error (Checkpoint.Instance_mismatch _) -> ()
  | Error e -> fail ("wrong error: " ^ Checkpoint.error_to_string e)

let test_hash_collision_rejected () =
  (* Regression: the hash alone used to be the only gate between a
     checkpoint and the problem it resumes.  Simulate a 64-bit
     collision — a checkpoint taken from p2 whose hash happens to equal
     p1's — and check the structural fingerprint refuses it. *)
  let p1 = random_problem 11 and p2 = random_problem 12 in
  let cp2 =
    Checkpoint.make ~hash:(Checkpoint.instance_hash p2) ~problem:p2 ~base_seed:3 ~elapsed:0.5
      ~incumbent:(Array.make (Problem.n p2) 0) ~incumbent_cost:4.0 ~starts:[] ()
  in
  let h1 = Checkpoint.instance_hash p1 in
  let forged = { cp2 with Checkpoint.instance_hash = h1 } in
  (match Checkpoint.validate ~hash:h1 forged p1 with
  | Ok () -> fail "colliding-hash mismatched instance resumed"
  | Error (Checkpoint.Fingerprint_mismatch _) -> ()
  | Error e -> fail ("wrong error: " ^ Checkpoint.error_to_string e));
  (* the fingerprint survives a save/load round-trip *)
  (match Checkpoint.of_string (Checkpoint.to_string forged) with
  | Ok cp' -> (
    match Checkpoint.validate ~hash:h1 cp' p1 with
    | Error (Checkpoint.Fingerprint_mismatch _) -> ()
    | Ok () -> fail "decoded colliding checkpoint resumed"
    | Error e -> fail ("wrong error after round-trip: " ^ Checkpoint.error_to_string e))
  | Error e -> fail ("round-trip failed: " ^ Checkpoint.error_to_string e));
  (* pre-v3 files carry no fingerprint: the hash check still governs *)
  let legacy = { forged with Checkpoint.fingerprint = None } in
  match Checkpoint.validate ~hash:h1 legacy p1 with
  | Ok () -> ()
  | Error e -> fail ("legacy checkpoint rejected: " ^ Checkpoint.error_to_string e)

let test_save_load () =
  let dir = Filename.temp_file "qbpart-ckpt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "state.ckpt" in
  let problem = random_problem 3 in
  let n = Problem.n problem in
  let cp =
    Checkpoint.make ~hash:(Checkpoint.instance_hash problem) ~problem ~base_seed:42
      ~elapsed:0.25
      ~incumbent:(Array.init n (fun j -> j mod 4))
      ~incumbent_cost:99.5
      ~starts:
        [
          {
            Checkpoint.start = 0;
            seed = 42;
            attempts = 2;
            feasible_cost = Some 99.5;
            failure = None;
          };
        ]
      ()
  in
  (match Checkpoint.save ~path cp with
  | Ok () -> ()
  | Error e -> fail (Checkpoint.error_to_string e));
  (match Checkpoint.load ~path with
  | Error e -> fail (Checkpoint.error_to_string e)
  | Ok cp' ->
    check Alcotest.bool "round-trips through the filesystem" true
      (cp' = { cp with incumbent = cp'.Checkpoint.incumbent }
      && cp'.Checkpoint.incumbent = cp.Checkpoint.incumbent));
  (* overwrite is atomic: a second save replaces, never appends *)
  (match Checkpoint.save ~path { cp with base_seed = 43 } with
  | Ok () -> ()
  | Error e -> fail (Checkpoint.error_to_string e));
  (match Checkpoint.load ~path with
  | Ok cp' -> check Alcotest.int "overwritten" 43 cp'.Checkpoint.base_seed
  | Error e -> fail (Checkpoint.error_to_string e));
  (* no temp litter after successful saves *)
  check Alcotest.int "directory holds only the checkpoint" 1
    (Array.length (Sys.readdir dir));
  (match Checkpoint.load ~path:(Filename.concat dir "absent.ckpt") with
  | Ok _ -> fail "absent file loaded"
  | Error (Checkpoint.Io _) -> ()
  | Error e -> fail ("wrong error: " ^ Checkpoint.error_to_string e));
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* The streamed writer ([output], used by [save]) must agree with
   [to_string] byte-for-byte and survive a frontier-scale assignment:
   100k entries round-trip through the filesystem intact. *)
let test_large_assignment_roundtrip () =
  let n = 100_000 in
  let rng = Rng.create 77 in
  let cp =
    {
      Checkpoint.instance_hash = 0x0123456789abcdefL;
      fingerprint = Some { fp_n = n; fp_m = 16; fp_wires = 500_000; fp_weight = 5.0e5 };
      base_seed = 7;
      elapsed = 123.456;
      incumbent = Array.init n (fun _ -> Rng.int rng 16);
      incumbent_cost = 1.5e6;
      incumbent_start = 3;
      starts =
        [
          { Checkpoint.start = 3; seed = 10; attempts = 1; feasible_cost = Some 1.5e6;
            failure = None };
        ];
    }
  in
  let dir = Filename.temp_file "qbpart-ckpt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "big.ckpt" in
  (match Checkpoint.save ~path cp with
  | Ok () -> ()
  | Error e -> fail (Checkpoint.error_to_string e));
  (match Checkpoint.load ~path with
  | Error e -> fail (Checkpoint.error_to_string e)
  | Ok cp' ->
    check Alcotest.bool "100k assignment survives save/load" true
      (cp'.Checkpoint.incumbent = cp.Checkpoint.incumbent);
    check Alcotest.bool "everything else survives too" true
      (cp' = { cp with incumbent = cp'.Checkpoint.incumbent }));
  (* the streamed bytes are exactly the to_string bytes *)
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let on_disk = really_input_string ic len in
  close_in ic;
  check Alcotest.bool "output matches to_string byte-for-byte" true
    (on_disk = Checkpoint.to_string cp);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_save_failure_reported () =
  match Checkpoint.save ~path:"/nonexistent-dir/x/y.ckpt"
          {
            Checkpoint.instance_hash = 0L;
            fingerprint = None;
            base_seed = 0;
            elapsed = 0.0;
            incumbent = [||];
            incumbent_cost = 0.0;
            incumbent_start = -1;
            starts = [];
          }
  with
  | Ok () -> fail "save into a missing directory succeeded"
  | Error (Checkpoint.Io _) -> ()
  | Error e -> fail ("wrong error: " ^ Checkpoint.error_to_string e)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "checkpoint"
    [
      ( "codec",
        [
          qt prop_roundtrip;
          qt prop_truncation_rejected;
          Alcotest.test_case "corrupt inputs rejected" `Quick test_corrupt_rejection;
          Alcotest.test_case "version-1 files still load" `Quick test_v1_compat;
        ] );
      ( "instance",
        [
          Alcotest.test_case "hash + validate" `Quick test_instance_hash_and_validate;
          Alcotest.test_case "colliding hash rejected by fingerprint" `Quick
            test_hash_collision_rejected;
          Alcotest.test_case "Table I hashes pinned" `Quick test_table1_hashes_pinned;
          Alcotest.test_case "ECO delta hash pinned" `Quick test_delta_hash_pinned;
          Alcotest.test_case "P, budget-free, one-partition, isolated and edited hashes pinned"
            `Quick test_shape_hashes_pinned;
        ] );
      ("fuzz", List.map qt checkpoint_fuzz);
      ( "filesystem",
        [
          Alcotest.test_case "atomic save/load" `Quick test_save_load;
          Alcotest.test_case "100k assignment streams and round-trips" `Quick
            test_large_assignment_roundtrip;
          Alcotest.test_case "save failure is structured" `Quick
            test_save_failure_reported;
        ] );
    ]
