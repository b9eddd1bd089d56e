(* Server tests: JSON/framing/protocol codecs (property-tested
   round-trips plus rejection of truncated, oversized and malformed
   input), the bounded queue's admission control and drain semantics,
   scheduler validation, and an in-process end-to-end exercise of the
   full serving contract over a real Unix-domain socket: two concurrent
   clients, interleaved submit/status/cancel, client disconnect
   mid-job, structured overloaded rejection, graceful drain, and a
   checkpoint from an interrupted job resumed to a certified answer. *)

module Json = Qbpart_server.Json
module Frame = Qbpart_server.Frame
module Netfault = Qbpart_server.Netfault
module Protocol = Qbpart_server.Protocol
module Router = Qbpart_server.Router
module Squeue = Qbpart_server.Queue
module Metrics = Qbpart_server.Metrics
module Scheduler = Qbpart_server.Scheduler
module Session = Qbpart_server.Session
module Server = Qbpart_server.Server
module Client = Qbpart_server.Client
module Generator = Qbpart_netlist.Generator
module Printer = Qbpart_netlist.Printer
module Rng = Qbpart_netlist.Rng
module Circuits = Qbpart_experiments.Circuits
module Certify = Qbpart_core.Certify
module Engine = Qbpart_engine.Engine
module Checkpoint = Qbpart_engine.Checkpoint

let check = Alcotest.check
let fail = Alcotest.fail

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_scalars () =
  let rt v = Json.of_string (Json.to_string v) in
  check Alcotest.bool "null" true (rt Json.Null = Ok Json.Null);
  check Alcotest.bool "true" true (rt (Json.Bool true) = Ok (Json.Bool true));
  check Alcotest.bool "int" true (rt (Json.Int (-42)) = Ok (Json.Int (-42)));
  check Alcotest.bool "escapes" true
    (rt (Json.String "a\"b\\c\nd\te\x01") = Ok (Json.String "a\"b\\c\nd\te\x01"));
  (match Json.of_string "{\"a\": [1, 2.5, \"x\"], \"b\": null}" with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x" ]); ("b", Json.Null) ])
    -> ()
  | Ok other -> fail ("unexpected parse: " ^ Json.to_string other)
  | Error e -> fail e);
  (match Json.of_string "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> fail "trailing garbage accepted")

let test_json_float_round_trip () =
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) ->
        check Alcotest.bool (Printf.sprintf "%h exact" f) true (Int64.bits_of_float f = Int64.bits_of_float g)
      | Ok (Json.Int i) ->
        check Alcotest.bool (Printf.sprintf "%h integral" f) true (float_of_int i = f)
      | Ok other -> fail ("float parsed as " ^ Json.to_string other)
      | Error e -> fail e)
    [ 0.1; -1.5; 1e-300; 1.7976931348623157e308; 3.0; -0.0; 4.9406564584124654e-324 ]

(* ------------------------------------------------------------------ *)
(* Frame *)

let test_frame_round_trip =
  QCheck.Test.make ~name:"frame: decode (encode s) = s" ~count:500
    QCheck.(string_gen QCheck.Gen.char)
    (fun payload ->
      match Frame.decode (Frame.encode payload) ~pos:0 with
      | Ok (p, next) -> p = payload && next = String.length (Frame.encode payload)
      | Error _ -> false)

let test_frame_truncation =
  (* no strict prefix of a valid frame may decode successfully *)
  QCheck.Test.make ~name:"frame: every strict prefix is rejected" ~count:200
    QCheck.(string_gen QCheck.Gen.char)
    (fun payload ->
      let wire = Frame.encode payload in
      let ok = ref true in
      for cut = 0 to String.length wire - 1 do
        match Frame.decode (String.sub wire 0 cut) ~pos:0 with
        | Ok _ -> ok := false
        | Error (Frame.Eof | Frame.Truncated _ | Frame.Malformed _) -> ()
        | Error (Frame.Oversized _) -> ok := false
      done;
      !ok)

let test_frame_limits () =
  (match Frame.decode ~max:16 (Frame.encode (String.make 1000 'x')) ~pos:0 with
  | Error (Frame.Oversized { declared = 1000; max = 16 }) -> ()
  | Error e -> fail ("wrong error: " ^ Frame.error_to_string e)
  | Ok _ -> fail "oversized frame accepted");
  (match Frame.decode "not-a-length\n{}\n" ~pos:0 with
  | Error (Frame.Malformed _) -> ()
  | Error e -> fail ("wrong error: " ^ Frame.error_to_string e)
  | Ok _ -> fail "malformed header accepted");
  (match Frame.decode "5\nhelloX" ~pos:0 with
  | Error (Frame.Malformed _) -> ()
  | Error e -> fail ("wrong error: " ^ Frame.error_to_string e)
  | Ok _ -> fail "missing terminator accepted");
  match Frame.decode "" ~pos:0 with
  | Error Frame.Eof -> ()
  | Error e -> fail ("wrong error: " ^ Frame.error_to_string e)
  | Ok _ -> fail "empty stream accepted"

let test_frame_sequence () =
  let payloads = [ "{}"; "{\"op\":\"metrics\",\"v\":1}"; String.make 100 '\n'; "" ] in
  let wire = String.concat "" (List.map Frame.encode payloads) in
  let rec decode_all pos acc =
    if pos >= String.length wire then List.rev acc
    else
      match Frame.decode wire ~pos with
      | Ok (p, next) -> decode_all next (p :: acc)
      | Error e -> fail ("mid-stream error: " ^ Frame.error_to_string e)
  in
  check Alcotest.(list string) "frames in order" payloads (decode_all 0 [])

(* ------------------------------------------------------------------ *)
(* Netfault: deterministic seeded fault injection *)

let test_netfault_spec () =
  let c =
    match Netfault.of_spec "seed=7,drop=0.05,delay=0.1:0.02,truncate=0.01,corrupt=0.02" with
    | Ok c -> c
    | Error e -> fail ("spec rejected: " ^ e)
  in
  check Alcotest.int "seed" 7 c.Netfault.seed;
  check (Alcotest.float 1e-12) "drop" 0.05 c.Netfault.drop;
  check (Alcotest.float 1e-12) "delay duration" 0.02 c.Netfault.delay_s;
  (match Netfault.of_spec (Netfault.to_spec c) with
  | Ok c' ->
    check Alcotest.string "spec round-trips" (Netfault.to_spec c) (Netfault.to_spec c')
  | Error e -> fail ("canonical spec rejected: " ^ e));
  (match Netfault.of_spec "drop=2.0" with
  | Error _ -> ()
  | Ok _ -> fail "out-of-range probability accepted");
  (match Netfault.of_spec "seed=1,warp=0.1" with
  | Error _ -> ()
  | Ok _ -> fail "unknown key accepted");
  check Alcotest.bool "none is inactive" false (Netfault.active Netfault.none);
  check Alcotest.bool "drop-only is active" true
    (Netfault.active { Netfault.none with Netfault.drop = 0.5 })

let test_netfault_determinism () =
  let config =
    match Netfault.of_spec "seed=13,drop=0.2,delay=0.2:0.001,truncate=0.2,corrupt=0.2" with
    | Ok c -> c
    | Error e -> fail e
  in
  let schedule seed =
    let t = Netfault.create { config with Netfault.seed } in
    List.init 300 (fun i -> Netfault.next t ~frame_len:(24 + (i mod 40)))
  in
  check Alcotest.bool "same seed, same schedule" true (schedule 13 = schedule 13);
  check Alcotest.bool "different seed diverges" true (schedule 13 <> schedule 14);
  (* offsets stay inside the frame; the injected counter counts exactly
     the non-Pass actions *)
  let t = Netfault.create config in
  let faults = ref 0 in
  for i = 0 to 299 do
    let len = 24 + (i mod 40) in
    match Netfault.next t ~frame_len:len with
    | Netfault.Pass -> ()
    | Netfault.Drop -> incr faults
    | Netfault.Delay d ->
      incr faults;
      if d <= 0.0 then fail "non-positive delay"
    | Netfault.Truncate n ->
      incr faults;
      if n < 0 || n >= len then fail (Printf.sprintf "truncate %d outside frame of %d" n len)
    | Netfault.Corrupt off ->
      incr faults;
      if off < 0 || off >= len then fail (Printf.sprintf "corrupt offset %d outside frame of %d" off len)
  done;
  check Alcotest.int "injected counter" !faults (Netfault.injected t);
  check Alcotest.bool "faults actually fired" true (!faults > 50)

(* write one frame through an injector and return the bytes on the wire *)
let write_with_fault config payload =
  let path = Filename.temp_file "qbpart-fault" ".bin" in
  let oc = open_out_bin path in
  Frame.write ~fault:(Netfault.create config) oc payload;
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let test_netfault_frame_write () =
  let payload = "{\"type\":\"drain_ack\",\"v\":2}" in
  let clean = Frame.encode payload in
  let dropped = write_with_fault { Netfault.none with Netfault.seed = 3; drop = 1.0 } payload in
  check Alcotest.string "dropped frame leaves no bytes" "" dropped;
  let truncated =
    write_with_fault { Netfault.none with Netfault.seed = 3; truncate = 1.0 } payload
  in
  check Alcotest.bool "truncated frame is a strict prefix" true
    (String.length truncated < String.length clean
    && truncated = String.sub clean 0 (String.length truncated));
  (match Frame.decode truncated ~pos:0 with
  | Error (Frame.Eof | Frame.Truncated _ | Frame.Malformed _) -> ()
  | Error (Frame.Oversized _) -> fail "truncation misread as oversized"
  | Ok _ -> fail "truncated frame decoded");
  let corrupted =
    write_with_fault { Netfault.none with Netfault.seed = 3; corrupt = 1.0 } payload
  in
  check Alcotest.int "corruption preserves length" (String.length clean) (String.length corrupted);
  check Alcotest.bool "corruption flips a byte" true (corrupted <> clean)

(* ------------------------------------------------------------------ *)
(* Protocol codec: property-tested round-trips *)

let gen_finite_float =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0.0; 1.0; -1.5; 0.1; 1.15; 1e-9; 12345.678 ];
        map (fun (m, e) -> ldexp m e) (pair (float_bound_inclusive 1.0) (int_range (-30) 30));
      ])

let gen_wire_string =
  (* exercise escaping: quotes, backslashes, control chars, high bytes *)
  QCheck.Gen.(string_size ~gen:char (int_range 0 30))

let gen_source =
  QCheck.Gen.(
    oneof
      [ map (fun s -> Protocol.Inline s) gen_wire_string; map (fun s -> Protocol.File s) gen_wire_string ])

let gen_submit =
  QCheck.Gen.(
    let* netlist = gen_source in
    let* timing = opt gen_source in
    let* rows = int_range 1 8 in
    let* cols = int_range 1 8 in
    let* slack = gen_finite_float in
    let* iterations = int_range 0 1000 in
    let* seed = int_range 0 1_000_000 in
    let* starts = int_range 1 16 in
    let* evolve = bool in
    let* generations = int_range 1 8 in
    let* pool_size = int_range 1 16 in
    let* deadline_s = opt gen_finite_float in
    let* label = opt gen_wire_string in
    let* priority = oneofl [ Protocol.Interactive; Protocol.Batch ] in
    return
      {
        Protocol.netlist;
        timing;
        rows;
        cols;
        slack;
        iterations;
        seed;
        starts;
        evolve;
        generations;
        pool_size;
        deadline_s;
        label;
        priority;
      })

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Protocol.Submit s) gen_submit;
        map (fun id -> Protocol.Status id) gen_wire_string;
        map2 (fun job since -> Protocol.Events { job; since }) gen_wire_string (int_range 0 3);
        map (fun id -> Protocol.Cancel id) gen_wire_string;
        return Protocol.Metrics;
        return Protocol.Heartbeat;
        return Protocol.Drain;
        map (fun s -> Protocol.Session_open s) gen_submit;
        (let* session = gen_wire_string in
         let* seq = int_range 1 1000 in
         let* delta = gen_wire_string in
         let* force_cold = bool in
         return (Protocol.Eco_submit { session; seq; delta; force_cold }));
        map (fun id -> Protocol.Session_close id) gen_wire_string;
      ])

let gen_job_state =
  QCheck.Gen.oneofl
    [ Protocol.Queued; Protocol.Running; Protocol.Done; Protocol.Failed; Protocol.Cancelled ]

let gen_error_code =
  QCheck.Gen.oneofl
    [
      Protocol.Bad_request;
      Protocol.Overloaded;
      Protocol.Draining;
      Protocol.Not_found;
      Protocol.Parse_error;
      Protocol.Solver_error;
      Protocol.Oversized;
      Protocol.Malformed;
      Protocol.Unavailable;
      Protocol.Internal;
      Protocol.Invalid_delta;
      Protocol.Unknown_session;
      Protocol.Stale_session;
    ]

let gen_job_view =
  QCheck.Gen.(
    let* id = gen_wire_string in
    let* state = gen_job_state in
    let* label = opt gen_wire_string in
    let* queued_seconds = gen_finite_float in
    let* wall_seconds = gen_finite_float in
    let* cost = opt gen_finite_float in
    let* certified = opt bool in
    let* interrupted = bool in
    let* winner = opt gen_wire_string in
    let* stages = list_size (int_range 0 5) gen_wire_string in
    let* error = opt gen_wire_string in
    let* checkpoint = opt gen_wire_string in
    let* assignment = opt (array_size (int_range 0 20) (int_range 0 63)) in
    let* resumed_from = opt gen_wire_string in
    return
      {
        Protocol.id;
        state;
        label;
        queued_seconds;
        wall_seconds;
        cost;
        certified;
        interrupted;
        winner;
        stages;
        error;
        checkpoint;
        assignment;
        resumed_from;
      })

let gen_metrics_view =
  QCheck.Gen.(
    let* accepted = int_range 0 1000 in
    let* rejected = int_range 0 1000 in
    let* completed = int_range 0 1000 in
    let* failed = int_range 0 1000 in
    let* cancelled = int_range 0 1000 in
    let* queue_depth = int_range 0 64 in
    let* running = int_range 0 16 in
    let* draining = bool in
    let* p50_wall = gen_finite_float in
    let* p99_wall = gen_finite_float in
    let* max_wall = gen_finite_float in
    let* uptime_seconds = gen_finite_float in
    let* fallbacks =
      list_size (int_range 0 4)
        (pair (oneofl [ "gkl"; "gfm"; "safety-net"; "qbp" ]) (int_range 0 99))
    in
    (* field names must be unique for an honest object round-trip *)
    let fallbacks = List.sort_uniq (fun (a, _) (b, _) -> compare a b) fallbacks in
    let* shed = int_range 0 50 in
    let* eco_warm_hits = int_range 0 500 in
    let* eco_cold_fallbacks = int_range 0 500 in
    let* cache_evictions = int_range 0 100 in
    let* integrity_failures = int_range 0 10 in
    return
      {
        Protocol.accepted;
        rejected;
        completed;
        failed;
        cancelled;
        queue_depth;
        running;
        draining;
        p50_wall;
        p99_wall;
        max_wall;
        uptime_seconds;
        fallbacks;
        shed;
        eco_warm_hits;
        eco_cold_fallbacks;
        cache_evictions;
        integrity_failures;
      })

let gen_heartbeat_view =
  QCheck.Gen.(
    let* shard = gen_wire_string in
    let* uptime = gen_finite_float in
    let* hb_queue_depth = int_range 0 64 in
    let* hb_running = int_range 0 16 in
    let* hb_draining = bool in
    return { Protocol.shard; uptime; hb_queue_depth; hb_running; hb_draining })

let gen_eco_view =
  QCheck.Gen.(
    let* eco_session = gen_wire_string in
    let* eco_seq = int_range 0 1000 in
    let* served = oneofl [ "warm"; "cold"; "resume"; "replay" ] in
    let* eco_cost = gen_finite_float in
    let* eco_certified = bool in
    let* eco_wall = gen_finite_float in
    let* eco_stages = list_size (int_range 0 6) gen_wire_string in
    let* eco_assignment = opt (array_size (int_range 0 20) (int_range 0 63)) in
    let* eco_instance = gen_wire_string in
    return
      {
        Protocol.eco_session;
        eco_seq;
        served;
        eco_cost;
        eco_certified;
        eco_wall;
        eco_stages;
        eco_assignment;
        eco_instance;
      })

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map2 (fun job queue_depth -> Protocol.Submitted { job; queue_depth }) gen_wire_string
          (int_range 0 64);
        map (fun v -> Protocol.Job v) gen_job_view;
        map (fun m -> Protocol.Metrics_snapshot m) gen_metrics_view;
        (let* job = gen_wire_string in
         let* seq = int_range 0 100 in
         let* state = gen_job_state in
         let* detail = opt gen_wire_string in
         return (Protocol.Event { job; seq; state; detail }));
        map (fun hb -> Protocol.Heartbeat_ack hb) gen_heartbeat_view;
        return Protocol.Drain_ack;
        map (fun v -> Protocol.Eco_result v) gen_eco_view;
        (let* session = gen_wire_string in
         let* checkpoint = opt gen_wire_string in
         return (Protocol.Session_closed { session; checkpoint }));
        (let* code = gen_error_code in
         let* message = gen_wire_string in
         return (Protocol.Error { code; message }));
      ])

let test_request_round_trip =
  QCheck.Test.make ~name:"protocol: decode_request (encode_request r) = r" ~count:1000
    (QCheck.make gen_request)
    (fun r ->
      match Protocol.decode_request (Protocol.encode_request r) with
      | Ok r' -> r' = r
      | Error _ -> false)

let test_response_round_trip =
  QCheck.Test.make ~name:"protocol: decode_response (encode_response r) = r" ~count:1000
    (QCheck.make gen_response)
    (fun r ->
      match Protocol.decode_response (Protocol.encode_response r) with
      | Ok r' -> r' = r
      | Error _ -> false)

(* A damaged payload decodes to [Ok] or [Error], never to an exception:
   the encoding of a generated value with one to three bytes replaced,
   or cut to any prefix. *)
let gen_damaged encode gen =
  QCheck.Gen.(
    let* s = map encode gen in
    let* cut = bool in
    if cut then map (fun k -> String.sub s 0 k) (int_bound (String.length s))
    else
      let* edits =
        list_size (int_range 1 3)
          (pair (int_bound (String.length s - 1)) (map Char.chr (int_bound 255)))
      in
      let b = Bytes.of_string s in
      List.iter (fun (at, c) -> Bytes.set b at c) edits;
      return (Bytes.to_string b))

let total_on_damage ~what decode encode gen =
  QCheck.Test.make ~name:(Printf.sprintf "protocol: %s is total on damaged encodings" what)
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") (gen_damaged encode gen))
    (fun s ->
      match decode s with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e))

let test_request_damage =
  total_on_damage ~what:"decode_request" Protocol.decode_request Protocol.encode_request
    gen_request

let test_response_damage =
  total_on_damage ~what:"decode_response" Protocol.decode_response Protocol.encode_response
    gen_response

let test_protocol_rejects () =
  List.iter
    (fun s ->
      match Protocol.decode_request s with
      | Error _ -> ()
      | Ok _ -> fail (Printf.sprintf "accepted %S" s))
    [
      "";
      "[]";
      "{}";
      "{\"v\":1}";
      "{\"v\":1,\"op\":\"launch-missiles\"}";
      "{\"v\":1,\"op\":\"status\"}" (* missing job *);
      "{\"v\":1,\"op\":\"status\",\"job\":7}" (* wrong type *);
      "{\"v\":1,\"op\":\"submit\"}" (* no netlist *);
      "not json at all";
    ]

let test_protocol_tolerates_unknown_fields () =
  (match Protocol.decode_request "{\"v\":1,\"op\":\"status\",\"job\":\"j1\",\"future\":true}" with
  | Ok (Protocol.Status "j1") -> ()
  | Ok _ -> fail "wrong parse"
  | Error e -> fail e);
  (* an unknown priority class degrades to batch, not to an error *)
  (match
     Protocol.decode_request
       "{\"v\":2,\"op\":\"submit\",\"netlist\":{\"inline\":\"x\"},\"priority\":\"turbo\"}"
   with
  | Ok (Protocol.Submit s) ->
    check Alcotest.string "unknown priority is batch" "batch"
      (Protocol.priority_to_string s.Protocol.priority)
  | Ok _ -> fail "wrong parse"
  | Error e -> fail e);
  (* older peers may still send [gap_race]: it is ignored, as unknown fields are *)
  (match
     Protocol.decode_request
       "{\"v\":3,\"op\":\"submit\",\"netlist\":{\"inline\":\"x\"},\"gap_race\":true}"
   with
  | Ok (Protocol.Submit s) ->
    if s <> Protocol.default_submit ~netlist:(Protocol.Inline "x") then
      fail "gap_race changed the decoded spec"
  | Ok _ -> fail "wrong parse"
  | Error e -> fail e);
  (* heartbeat acks from a future daemon may carry extra fields *)
  (match
     Protocol.decode_response
       "{\"v\":3,\"type\":\"heartbeat_ack\",\"shard\":\"s1\",\"uptime_seconds\":1.5,\
        \"queue_depth\":2,\"running\":1,\"draining\":false,\"load_avg\":0.9}"
   with
  | Ok (Protocol.Heartbeat_ack hb) ->
    check Alcotest.string "shard survives" "s1" hb.Protocol.shard;
    check Alcotest.int "queue depth survives" 2 hb.Protocol.hb_queue_depth
  | Ok _ -> fail "wrong parse"
  | Error e -> fail e);
  (* events without [since] mean the full stream *)
  match Protocol.decode_request "{\"v\":2,\"op\":\"events\",\"job\":\"j9\"}" with
  | Ok (Protocol.Events { job = "j9"; since = 0 }) -> ()
  | Ok _ -> fail "wrong parse"
  | Error e -> fail e

(* ------------------------------------------------------------------ *)
(* Queue *)

let push_batch q x = Squeue.push q ~priority:Protocol.Batch x
let push_inter q x = Squeue.push q ~priority:Protocol.Interactive x

let test_queue_fifo () =
  let q = Squeue.create ~capacity:3 () in
  check Alcotest.int "capacity" 3 (Squeue.capacity q);
  (match push_batch q 1 with Squeue.Accepted { depth = 1; shed = None } -> () | _ -> fail "push 1");
  (match push_batch q 2 with Squeue.Accepted { depth = 2; shed = None } -> () | _ -> fail "push 2");
  (match push_batch q 3 with Squeue.Accepted { depth = 3; shed = None } -> () | _ -> fail "push 3");
  (match push_batch q 4 with Squeue.Overloaded -> () | _ -> fail "capacity not enforced");
  check Alcotest.int "length" 3 (Squeue.length q);
  check Alcotest.(option int) "fifo 1" (Some 1) (Squeue.pop q);
  (match push_batch q 4 with Squeue.Accepted { depth = 3; shed = None } -> () | _ -> fail "slot freed");
  check Alcotest.(option int) "fifo 2" (Some 2) (Squeue.pop q);
  check Alcotest.(option int) "fifo 3" (Some 3) (Squeue.pop q);
  check Alcotest.(option int) "fifo 4" (Some 4) (Squeue.pop q)

let test_queue_zero_capacity () =
  let q = Squeue.create ~capacity:0 () in
  (match push_batch q () with
  | Squeue.Overloaded -> ()
  | _ -> fail "zero-capacity queue accepted a batch push");
  match push_inter q () with
  | Squeue.Overloaded -> ()
  | _ -> fail "zero-capacity queue accepted an interactive push"

let test_queue_priority_weighting () =
  (* weight 2: two interactive pops, then one batch pop is forced, so
     neither class starves the other *)
  let q = Squeue.create ~weight:2 ~capacity:8 () in
  List.iter (fun i -> ignore (push_batch q i)) [ 1; 2; 3; 4 ];
  List.iter (fun i -> ignore (push_inter q i)) [ 5; 6; 7; 8 ];
  let order = List.init 8 (fun _ -> Option.get (Squeue.pop q)) in
  check Alcotest.(list int) "deficit-weighted interleave" [ 5; 6; 1; 7; 8; 2; 3; 4 ] order

let test_queue_shed () =
  let q = Squeue.create ~capacity:2 () in
  ignore (push_batch q 1);
  ignore (push_batch q 2);
  (* an interactive arrival at capacity evicts the newest batch job *)
  (match push_inter q 10 with
  | Squeue.Accepted { depth = 2; shed = Some 2 } -> ()
  | Squeue.Accepted { depth; shed } ->
    fail
      (Printf.sprintf "wrong shed: depth=%d shed=%s" depth
         (match shed with Some v -> string_of_int v | None -> "none"))
  | _ -> fail "interactive push refused despite sheddable batch work");
  (* a second one evicts the remaining batch job *)
  (match push_inter q 11 with
  | Squeue.Accepted { shed = Some 1; _ } -> ()
  | _ -> fail "second shed");
  (* nothing sheddable left: interactive arrivals now overload too *)
  (match push_inter q 12 with
  | Squeue.Overloaded -> ()
  | _ -> fail "interactive push must not shed interactive work");
  check Alcotest.(option int) "older interactive first" (Some 10) (Squeue.pop q);
  check Alcotest.(option int) "then the newer" (Some 11) (Squeue.pop q)

let test_queue_drain () =
  let q = Squeue.create ~capacity:8 () in
  List.iter (fun i -> ignore (push_batch q i)) [ 1; 2; 3 ];
  ignore (push_inter q 9);
  check Alcotest.(list int) "leftovers, interactive lane first" [ 9; 1; 2; 3 ] (Squeue.drain q);
  check Alcotest.bool "draining" true (Squeue.is_draining q);
  (match push_batch q 9 with Squeue.Draining -> () | _ -> fail "admission not closed");
  check Alcotest.(option int) "pop after drain" None (Squeue.pop q);
  check Alcotest.(list int) "drain idempotent" [] (Squeue.drain q)

let test_queue_drain_wakes_blocked_pop () =
  let q : int Squeue.t = Squeue.create ~capacity:4 () in
  let result = ref (Some 0) in
  let th = Thread.create (fun () -> result := Squeue.pop q) () in
  Thread.delay 0.05;
  ignore (Squeue.drain q);
  Thread.join th;
  check Alcotest.(option int) "blocked consumer released with None" None !result

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_snapshot () =
  let m = Metrics.create () in
  Metrics.accepted m;
  Metrics.accepted m;
  Metrics.rejected m;
  Metrics.completed m ~wall:0.1;
  Metrics.completed m ~wall:0.3;
  Metrics.fallback m "gkl";
  Metrics.fallback m "gkl";
  Metrics.fallback m "safety-net";
  let s = Metrics.snapshot m ~queue_depth:1 ~running:1 ~draining:false in
  check Alcotest.int "accepted" 2 s.Protocol.accepted;
  check Alcotest.int "rejected" 1 s.Protocol.rejected;
  check Alcotest.int "completed" 2 s.Protocol.completed;
  check (Alcotest.float 1e-9) "p50" 0.1 s.Protocol.p50_wall;
  check (Alcotest.float 1e-9) "p99" 0.3 s.Protocol.p99_wall;
  check (Alcotest.float 1e-9) "max" 0.3 s.Protocol.max_wall;
  check
    Alcotest.(list (pair string int))
    "fallbacks" [ ("gkl", 2); ("safety-net", 1) ] s.Protocol.fallbacks

(* ------------------------------------------------------------------ *)
(* Scheduler: spec validation without any socket *)

let netlist_text ~n ~wires ~seed =
  let rng = Rng.create seed in
  Printer.to_string (Generator.generate rng (Generator.default_params ~n ~wires))

let base_spec text = Protocol.default_submit ~netlist:(Protocol.Inline text)

(* the generated instances pack comfortably into a 2x2 grid; the
   default 4x4 is over-partitioned for them (no feasible random start) *)
let small_grid spec = { spec with Protocol.rows = 2; cols = 2 }

let test_scheduler_validation () =
  let text = netlist_text ~n:12 ~wires:24 ~seed:3 in
  (match Scheduler.problem_of_spec { (base_spec text) with Protocol.rows = 0 } with
  | Error (Protocol.Bad_request, _) -> ()
  | Error (c, m) -> fail (Protocol.error_code_to_string c ^ ": " ^ m)
  | Ok _ -> fail "rows = 0 accepted");
  (match Scheduler.problem_of_spec { (base_spec text) with Protocol.slack = Float.nan } with
  | Error (Protocol.Bad_request, _) -> ()
  | _ -> fail "nan slack accepted");
  (match Scheduler.problem_of_spec (base_spec "not a netlist ][") with
  | Error (Protocol.Parse_error, _) -> ()
  | Error (c, m) -> fail (Protocol.error_code_to_string c ^ ": " ^ m)
  | Ok _ -> fail "garbage netlist accepted");
  (match
     Scheduler.problem_of_spec
       { (base_spec text) with Protocol.netlist = Protocol.File "/nonexistent/x.net" }
   with
  | Error (Protocol.Parse_error, _) -> ()
  | _ -> fail "missing file accepted");
  (* specs the engine would refuse are refused at admission, each field
     by one rule whatever the others say, and counted as rejections *)
  let engine_refused =
    let spec = base_spec text in
    [
      ("evolve with generations = 0", { spec with Protocol.evolve = true; generations = 0 });
      ("generations = 0 without evolve", { spec with Protocol.generations = 0 });
      ("pool_size = 0 without evolve", { spec with Protocol.pool_size = 0 });
    ]
  in
  let metrics = Metrics.create () in
  let sched = Scheduler.create ~workers:1 ~queue_capacity:4 ~metrics () in
  List.iter
    (fun (what, spec) ->
      match Scheduler.submit sched spec with
      | Error (Protocol.Bad_request, _) -> ()
      | Error (c, m) -> fail (what ^ ": " ^ Protocol.error_code_to_string c ^ ": " ^ m)
      | Ok _ -> fail (what ^ " admitted"))
    engine_refused;
  let snap = Scheduler.snapshot sched in
  Scheduler.drain sched;
  check Alcotest.int "refusals counted" (List.length engine_refused) snap.Protocol.rejected;
  check Alcotest.int "nothing admitted" 0 snap.Protocol.accepted;
  match Scheduler.problem_of_spec (base_spec text) with
  | Ok _ -> ()
  | Error (c, m) -> fail (Protocol.error_code_to_string c ^ ": " ^ m)

(* ------------------------------------------------------------------ *)
(* Session: the warm-cache integrity contract, without any socket.
   A corrupt-cache fault armed on the first ECO must trip the stamp
   re-check, count an integrity failure, and demote the request to a
   certified cold solve — never serve the poisoned incumbent. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_session_integrity_demotes_to_cold () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qbpart-session-test-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  let metrics = Metrics.create () in
  let t =
    Session.create
      {
        Session.checkpoint_dir = dir;
        fault = Some { Session.Fault.corrupt = Some 1; stale = None };
      }
      ~metrics
  in
  let spec =
    { (small_grid (base_spec (netlist_text ~n:16 ~wires:40 ~seed:11))) with
      Protocol.slack = 1.4; iterations = 20; seed = 3 }
  in
  let v0 =
    match Session.open_session t spec with
    | Ok v -> v
    | Error (c, m) -> fail (Protocol.error_code_to_string c ^ ": " ^ m)
  in
  check Alcotest.bool "open certified" true v0.Protocol.eco_certified;
  check Alcotest.int "open seq" 0 v0.Protocol.eco_seq;
  let v1 =
    match
      Session.eco t ~session:v0.Protocol.eco_session ~seq:1 ~delta:"retime c0 c1 4.0\n"
        ~force_cold:false
    with
    | Ok v -> v
    | Error (c, m) -> fail (Protocol.error_code_to_string c ^ ": " ^ m)
  in
  check Alcotest.string "demoted to cold" "cold" v1.Protocol.served;
  check Alcotest.bool "cold answer certified" true v1.Protocol.eco_certified;
  check Alcotest.bool "stage report names the integrity re-check" true
    (List.exists (contains ~sub:"integrity") v1.Protocol.eco_stages);
  let m = Metrics.snapshot metrics ~queue_depth:0 ~running:0 ~draining:false in
  check Alcotest.int "integrity failure counted" 1 m.Protocol.integrity_failures;
  check Alcotest.bool "demotion counted as cold fallback" true
    (m.Protocol.eco_cold_fallbacks >= 1);
  check Alcotest.int "no warm hit" 0 m.Protocol.eco_warm_hits;
  (* the poisoned entry was dropped: the next delta warms from the
     freshly adopted cold incumbent and must serve warm again *)
  let v2 =
    match
      Session.eco t ~session:v0.Protocol.eco_session ~seq:2 ~delta:"retime c2 c3 4.0\n"
        ~force_cold:false
    with
    | Ok v -> v
    | Error (c, m) -> fail (Protocol.error_code_to_string c ^ ": " ^ m)
  in
  check Alcotest.string "cache recovers to warm serving" "warm" v2.Protocol.served;
  check Alcotest.bool "warm answer certified" true v2.Protocol.eco_certified;
  Session.drain t

(* ckta on a 2x2 grid with budgets planted around a 2x2 reference (so
   a distance-2 pair breaks a budget of 1), served at slack 1.3 with
   seed 3 unless the caller says otherwise. *)
let ckta_spec =
  lazy
    (let ckta = List.find (fun c -> c.Circuits.name = "ckta") Circuits.table1 in
     let inst = Circuits.build ~rows:2 ~cols:2 ~capacity_slack:1.3 ~reference_iterations:1 ckta in
     let nl = inst.Circuits.netlist in
     {
       (small_grid (base_spec (Printer.to_string nl))) with
       Protocol.timing =
         Some
           (Protocol.Inline (Qbpart_timing.Constraints_io.to_string nl inst.Circuits.constraints));
       slack = 1.3;
       iterations = 20;
       seed = 3;
     })

let session_store name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qbpart-session-%s-test-%d" name (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  dir

let answer what = function
  | Ok v -> v
  | Error (c, m) -> fail (what ^ ": " ^ Protocol.error_code_to_string c ^ ": " ^ m)

let pinned what (v : Protocol.eco_view) (served, cost, instance, assignment) =
  let digest a =
    Digest.to_hex (Digest.string (String.concat "," (List.map string_of_int (Array.to_list a))))
  in
  check Alcotest.string (what ^ ": served") served v.Protocol.served;
  check Alcotest.bool (what ^ ": certified") true v.Protocol.eco_certified;
  check Alcotest.string (what ^ ": cost") (Printf.sprintf "%h" cost)
    (Printf.sprintf "%h" v.Protocol.eco_cost);
  check Alcotest.string (what ^ ": instance") instance v.Protocol.eco_instance;
  check Alcotest.string (what ^ ": assignment") assignment
    (digest (Option.get v.Protocol.eco_assignment))

(* The pinned stream's first step: a binding retime, served warm. *)
let binding_retime = "retime ckta_c0 ckta_c31 1.0\n"

let binding_retime_pin =
  ("warm", 0x1.64cp+11, "8ba0269467200412", "5560fcf96968f3525120bdba844f6185")

(* The answers of a warm ECO stream, pinned.  The ckta instance takes a
   binding retime, a loose one, a wire, an unwire, a multi-op delta, an
   add with its wires, a remove, a forced cold re-solve and a warm
   delta after it.  Each answer's served tag, exact cost, instance hash
   and assignment digest is pinned: where the repair and polish passes
   get their rows from must never change what a warm answer serves
   (DESIGN.md D29). *)
let test_session_pinned_eco_stream () =
  let t =
    Session.create
      { Session.checkpoint_dir = session_store "pinned"; fault = None }
      ~metrics:(Metrics.create ())
  in
  let v0 = answer "open" (Session.open_session t (Lazy.force ckta_spec)) in
  pinned "open" v0 ("cold", 0x1.606p+11, "b20be12667f3acec", "819a3a1cd77ae608a6d5200923cadb55");
  let stream =
    [
      ("binding retime", binding_retime, false, binding_retime_pin);
      ( "loose retime", "retime ckta_c4 ckta_c5 9.0\n", false,
        ("warm", 0x1.64cp+11, "eebbd201ac083ba1", "5560fcf96968f3525120bdba844f6185") );
      ( "wire", "wire ckta_c1 ckta_c3 40\n", false,
        ("warm", 0x1.676p+11, "92bc4156e444c597", "bf487873b6ae23a3e400bf316a43aa67") );
      ( "unwire", "unwire ckta_c0 ckta_c2\n", false,
        ("warm", 0x1.66cp+11, "3cdc4583ac1b23a5", "bf487873b6ae23a3e400bf316a43aa67") );
      ( "multi-op",
        "retime ckta_c0 ckta_c54 1.0\nwire ckta_c6 ckta_c7 30\nunwire ckta_c0 ckta_c19\n",
        false,
        ("warm", 0x1.6a2p+11, "9a131dbddad96ea", "bf487873b6ae23a3e400bf316a43aa67") );
      ( "add+wire", "add ckta_new 2.0\nwire ckta_new ckta_c8 3\nwire ckta_new ckta_c9 1\n",
        false,
        ("warm", 0x1.6a6p+11, "89d8258e97e13c45", "bc7430a02bdf8168f91a67c224b5ca87") );
      ( "remove", "remove ckta_c10\n", false,
        ("warm", 0x1.692p+11, "eeb7b6392ddf215c", "1190f90f4d2b0dc5ef0164046e4eb6d7") );
      ( "forced cold", "retime ckta_c11 ckta_c12 1.0\n", true,
        ("cold", 0x1.21ep+11, "c7e02fd2f2306838", "8c2bbc9e1e3b66826d78c86dfa362065") );
      ( "warm after cold", "wire ckta_c13 ckta_c14 40\n", false,
        ("warm", 0x1.21ep+11, "585529c8b6618119", "8c2bbc9e1e3b66826d78c86dfa362065") );
    ]
  in
  let rung stage = List.hd (String.split_on_char ':' stage) in
  List.iteri
    (fun k (what, delta, force_cold, pin) ->
      let v =
        answer what (Session.eco t ~session:v0.Protocol.eco_session ~seq:(k + 1) ~delta ~force_cold)
      in
      pinned what v pin;
      if v.Protocol.served = "warm" then
        check
          Alcotest.(list string)
          (what ^ ": ladder")
          [ "validate"; "patch"; "repair"; "polish"; "certify" ]
          (List.map rung v.Protocol.eco_stages))
    stream;
  Session.drain t

(* Two sessions on one instance each keep their own incumbent: the
   second open must not replace the first's, and the first's delta
   must not take the second's away. *)
let test_session_two_on_one_instance () =
  let t =
    Session.create
      { Session.checkpoint_dir = session_store "shared"; fault = None }
      ~metrics:(Metrics.create ())
  in
  let spec = Lazy.force ckta_spec in
  let a = answer "open A" (Session.open_session t spec) in
  let b = answer "open B" (Session.open_session t { spec with Protocol.seed = 5 }) in
  check Alcotest.string "one instance" a.Protocol.eco_instance b.Protocol.eco_instance;
  let eco (v : Protocol.eco_view) delta =
    answer delta (Session.eco t ~session:v.Protocol.eco_session ~seq:1 ~delta ~force_cold:false)
  in
  pinned "A's first delta" (eco a binding_retime) binding_retime_pin;
  check Alcotest.string "B's first delta" "warm"
    (eco b "retime ckta_c4 ckta_c5 9.0\n").Protocol.served;
  Session.drain t

(* A session payload is exactly a submit spec: an evolve spec must run
   the population search, as the same spec does through submit. *)
let test_session_open_runs_evolve () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qbpart-session-evolve-test-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  let t =
    Session.create
      { Session.checkpoint_dir = dir; fault = None }
      ~metrics:(Metrics.create ())
  in
  let spec =
    { (small_grid (base_spec (netlist_text ~n:16 ~wires:40 ~seed:11))) with
      Protocol.slack = 1.4; iterations = 20; seed = 3; evolve = true; starts = 4;
      generations = 2 }
  in
  (match Session.open_session t spec with
  | Ok v ->
    check Alcotest.bool "open certified" true v.Protocol.eco_certified;
    check Alcotest.bool "stage report names the evolve search" true
      (List.exists (String.starts_with ~prefix:"evolve:") v.Protocol.eco_stages)
  | Error (c, m) -> fail (Protocol.error_code_to_string c ^ ": " ^ m));
  Session.drain t

let test_session_fault_spec () =
  (match Session.Fault.of_spec "corrupt=1,stale=5" with
  | Ok f ->
    check Alcotest.(option int) "corrupt" (Some 1) f.Session.Fault.corrupt;
    check Alcotest.(option int) "stale" (Some 5) f.Session.Fault.stale;
    check Alcotest.string "round-trips" "corrupt=1,stale=5" (Session.Fault.to_spec f)
  | Error e -> fail e);
  List.iter
    (fun s ->
      match Session.Fault.of_spec s with
      | Error _ -> ()
      | Ok _ -> fail (Printf.sprintf "accepted %S" s))
    [ "corrupt=0"; "stale=-1"; "bogus=3"; "corrupt="; "corrupt=x"; "torn=1" ];
  match Session.Fault.of_spec "torn=1" with
  | Error e ->
    check Alcotest.bool "torn is no fault point" true (contains ~sub:"unknown fault point" e)
  | Ok _ -> fail "accepted torn=1"

(* ------------------------------------------------------------------ *)
(* End-to-end: the serving contract over a real socket *)

let temp_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qbpartd-test-%d-%d" (Unix.getpid ()) (int_of_float (Unix.gettimeofday () *. 1000.) mod 100000))
  in
  Unix.mkdir dir 0o700;
  dir

let rec wait_for ?(timeout = 20.0) ?(poll = 0.02) pred what =
  if timeout <= 0.0 then fail ("timed out waiting for " ^ what)
  else if pred () then ()
  else begin
    Thread.delay poll;
    wait_for ~timeout:(timeout -. poll) ~poll pred what
  end

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let call_ok c req =
  match Client.call c req with Ok r -> r | Error e -> fail ("call failed: " ^ e)

let job_of_submit = function
  | Protocol.Submitted { job; _ } -> job
  | r -> fail (Format.asprintf "expected submitted, got %a" Protocol.pp_response r)

let test_e2e_serving_contract () =
  let dir = temp_dir () in
  let socket_path = Filename.concat dir "d.sock" in
  let config =
    { (Server.default_config ~socket_path) with Server.max_queue = 1; workers = 1;
      checkpoint_dir = dir }
  in
  let server =
    match Server.create config with Ok s -> s | Error e -> fail ("server create: " ^ e)
  in
  let serve_thread = Thread.create Server.serve server in
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      (* never leak the listener or the worker domains on a failing test *)
      if not !finished then begin
        Server.request_drain server;
        Thread.join serve_thread
      end)
  @@ fun () ->
  let text = netlist_text ~n:40 ~wires:120 ~seed:11 in
  let connect () =
    match Client.connect (Client.Unix_socket socket_path) with
    | Ok c -> c
    | Error e -> fail ("connect: " ^ e)
  in
  let a = connect () in
  let b = connect () in

  (* J1: a deliberately long job (many portfolio starts) that we will
     cancel mid-flight; every completed start captures a checkpoint. *)
  let long_spec =
    { (small_grid (base_spec text)) with Protocol.starts = 4000; iterations = 80; label = Some "long" }
  in
  let j1 = job_of_submit (call_ok a (Protocol.Submit long_spec)) in
  wait_for
    (fun () ->
      match Scheduler.view (Server.scheduler server) j1 with
      | Some v -> v.Protocol.state = Protocol.Running
      | None -> false)
    "j1 to start running";

  (* J2 fills the single queue slot (submitted from the other client)... *)
  let short_spec = { (small_grid (base_spec text)) with Protocol.iterations = 40; label = Some "short" } in
  let j2 = job_of_submit (call_ok b (Protocol.Submit short_spec)) in

  (* ...so a third submission must be refused with a structured
     [overloaded] error mentioning the bound. *)
  (match call_ok a (Protocol.Submit short_spec) with
  | Protocol.Error { code = Protocol.Overloaded; message } ->
    check Alcotest.bool "overloaded message names the bound" true
      (contains ~needle:"max 1" message)
  | r -> fail (Format.asprintf "expected overloaded, got %a" Protocol.pp_response r));

  (* client B vanishes mid-job: its connection thread dies, its job
     must not. *)
  Client.close b;

  (* cancel the long job from client A: prompt Cancelled terminal state
     carrying a certified best-so-far and a resumable checkpoint. *)
  (match call_ok a (Protocol.Cancel j1) with
  | Protocol.Job _ -> ()
  | r -> fail (Format.asprintf "expected job view, got %a" Protocol.pp_response r));
  let v1 =
    match Client.wait ~timeout:30.0 a j1 with
    | Ok v -> v
    | Error e -> fail ("waiting for j1: " ^ e)
  in
  check Alcotest.string "j1 cancelled" "cancelled" (Protocol.job_state_to_string v1.Protocol.state);
  check Alcotest.(option bool) "j1 best-so-far certified" (Some true) v1.Protocol.certified;
  check Alcotest.bool "j1 interrupted" true v1.Protocol.interrupted;
  let ckpt_path =
    match v1.Protocol.checkpoint with
    | Some p -> p
    | None -> fail "cancelled job left no checkpoint"
  in
  check Alcotest.bool "checkpoint file exists" true (Sys.file_exists ckpt_path);

  (* J2, whose submitting client is long gone, still completes and is
     queryable from the surviving connection. *)
  let v2 =
    match Client.wait ~timeout:30.0 a j2 with
    | Ok v -> v
    | Error e -> fail ("waiting for j2: " ^ e)
  in
  check Alcotest.string "j2 done" "done" (Protocol.job_state_to_string v2.Protocol.state);
  check Alcotest.(option bool) "j2 certified" (Some true) v2.Protocol.certified;
  (match v2.Protocol.assignment with
  | Some arr -> check Alcotest.int "j2 assignment covers the netlist" 40 (Array.length arr)
  | None -> fail "j2 has no assignment");

  (* the events stream for a finished job terminates with its view *)
  (match Client.call a (Protocol.Events { job = j2; since = 0 }) with
  | Error e -> fail ("events: " ^ e)
  | Ok first ->
    let rec last = function
      | Protocol.Job v -> v
      | Protocol.Event _ -> (
        match Client.read_response a with
        | Ok r -> last r
        | Error e -> fail ("event stream: " ^ e))
      | r -> fail (Format.asprintf "unexpected stream frame %a" Protocol.pp_response r)
    in
    let v = last first in
    check Alcotest.string "stream ends on the terminal view" "done"
      (Protocol.job_state_to_string v.Protocol.state));

  (* status for an unknown id is a structured not_found *)
  (match call_ok a (Protocol.Status "j999") with
  | Protocol.Error { code = Protocol.Not_found; _ } -> ()
  | r -> fail (Format.asprintf "expected not_found, got %a" Protocol.pp_response r));

  (* the interrupted job's checkpoint resumes — outside the daemon,
     exactly as [qbpart solve --resume] would — to a certified answer *)
  let problem =
    match Scheduler.problem_of_spec long_spec with
    | Ok p -> p
    | Error (_, m) -> fail ("rebuilding j1's instance: " ^ m)
  in
  let cp =
    match Checkpoint.load ~path:ckpt_path with
    | Ok cp -> cp
    | Error e -> fail ("checkpoint load: " ^ Checkpoint.error_to_string e)
  in
  (match Checkpoint.validate ~hash:(Checkpoint.instance_hash problem) cp problem with
  | Ok () -> ()
  | Error e -> fail ("checkpoint does not match its instance: " ^ Checkpoint.error_to_string e));
  let config =
    { Engine.Config.default with starts = 2; qbp = { Qbpart_core.Burkard.Config.default with iterations = 80 } }
  in
  (match Engine.solve ~config ~resume:cp problem with
  | Ok { Engine.certificate; cost; _ } ->
    check Alcotest.bool "resumed answer certified" true (Certify.ok certificate);
    (match v1.Protocol.cost with
    | Some interrupted_cost ->
      check Alcotest.bool "resume does not regress the incumbent" true
        (cost <= interrupted_cost +. 1e-6)
    | None -> fail "cancelled job carried no cost")
  | Error e -> fail ("resume failed: " ^ Engine.Error.to_string e));

  (* metrics reflect everything that happened *)
  (match call_ok a Protocol.Metrics with
  | Protocol.Metrics_snapshot m ->
    check Alcotest.int "accepted" 2 m.Protocol.accepted;
    check Alcotest.bool "rejected >= 1" true (m.Protocol.rejected >= 1);
    check Alcotest.int "completed" 1 m.Protocol.completed;
    check Alcotest.int "cancelled" 1 m.Protocol.cancelled
  | r -> fail (Format.asprintf "expected metrics, got %a" Protocol.pp_response r));

  (* graceful drain via the protocol (the SIGTERM handler runs this
     same path): ack, full stop, socket gone. *)
  (match call_ok a Protocol.Drain with
  | Protocol.Drain_ack -> ()
  | r -> fail (Format.asprintf "expected drain ack, got %a" Protocol.pp_response r));
  Thread.join serve_thread;
  finished := true;
  Client.close a;
  check Alcotest.bool "socket unlinked after drain" false (Sys.file_exists socket_path);
  (match Client.connect ~connect_timeout:1.0 (Client.Unix_socket socket_path) with
  | Error _ -> ()
  | Ok _ -> fail "daemon still accepting after drain");
  let s = Server.snapshot server in
  check Alcotest.bool "snapshot draining" true s.Protocol.draining

let test_drain_cancels_queued_jobs () =
  let dir = temp_dir () in
  let socket_path = Filename.concat dir "d.sock" in
  let config =
    { (Server.default_config ~socket_path) with Server.max_queue = 4; workers = 1;
      checkpoint_dir = dir }
  in
  let server =
    match Server.create config with Ok s -> s | Error e -> fail ("server create: " ^ e)
  in
  let serve_thread = Thread.create Server.serve server in
  let text = netlist_text ~n:30 ~wires:80 ~seed:5 in
  let c =
    match Client.connect (Client.Unix_socket socket_path) with
    | Ok c -> c
    | Error e -> fail e
  in
  let long_spec = { (small_grid (base_spec text)) with Protocol.starts = 4000; iterations = 80 } in
  let j1 = job_of_submit (call_ok c (Protocol.Submit long_spec)) in
  wait_for
    (fun () ->
      match Scheduler.view (Server.scheduler server) j1 with
      | Some v -> v.Protocol.state = Protocol.Running
      | None -> false)
    "j1 to start running";
  let j2 = job_of_submit (call_ok c (Protocol.Submit (small_grid (base_spec text)))) in
  (* drain exactly as the signal handler does: the async-signal-safe
     request, not the protocol op *)
  Server.request_drain server;
  Thread.join serve_thread;
  let sched = Server.scheduler server in
  let v1 = Option.get (Scheduler.view sched j1) in
  let v2 = Option.get (Scheduler.view sched j2) in
  (* the running job returned its certified best-so-far; the queued one
     was cancelled before it ever started *)
  check Alcotest.bool "j1 reached a terminal state" true
    (match v1.Protocol.state with
    | Protocol.Done | Protocol.Cancelled -> true
    | _ -> false);
  check Alcotest.(option bool) "j1 certified" (Some true) v1.Protocol.certified;
  check Alcotest.string "j2 cancelled by drain" "cancelled"
    (Protocol.job_state_to_string v2.Protocol.state);
  check Alcotest.bool "j2 never ran" true (v2.Protocol.cost = None);
  (* v3 session ops are refused for the whole drain window — observed
     from a connection that was accepted before the drain began *)
  (match call_ok c (Protocol.Session_open (small_grid (base_spec text))) with
  | Protocol.Error { code = Protocol.Draining; _ } -> ()
  | r -> fail (Format.asprintf "expected draining refusal, got %a" Protocol.pp_response r));
  (match
     call_ok c (Protocol.Eco_submit { session = "s1"; seq = 1; delta = ""; force_cold = false })
   with
  | Protocol.Error { code = Protocol.Draining; _ } -> ()
  | r -> fail (Format.asprintf "expected draining refusal, got %a" Protocol.pp_response r));
  Client.close c

(* ------------------------------------------------------------------ *)
(* A finished job keeps only what its view reports: the scheduler drops
   the submission, the parsed instance and the checkpoints at the
   terminal transition.  Status and Events must still return the same
   view, and the job table must grow by far less than one instance per
   finished job. *)

let terminal_view c job =
  let rec last = function
    | Protocol.Job v -> v
    | Protocol.Event _ -> (
      match Client.read_response c with
      | Ok r -> last r
      | Error e -> fail ("event stream: " ^ e))
    | r -> fail (Format.asprintf "unexpected stream frame %a" Protocol.pp_response r)
  in
  last (call_ok c (Protocol.Events { job; since = 0 }))

let test_finished_views_agree () =
  let dir = temp_dir () in
  let socket_path = Filename.concat dir "d.sock" in
  let config =
    { (Server.default_config ~socket_path) with Server.workers = 1; checkpoint_dir = dir }
  in
  let server =
    match Server.create config with Ok s -> s | Error e -> fail ("server create: " ^ e)
  in
  let serve_thread = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Thread.join serve_thread)
  @@ fun () ->
  let c =
    match Client.connect (Client.Unix_socket socket_path) with
    | Ok c -> c
    | Error e -> fail ("connect: " ^ e)
  in
  let spec =
    {
      (small_grid (base_spec (netlist_text ~n:30 ~wires:80 ~seed:9))) with
      Protocol.iterations = 20;
      label = Some "released";
    }
  in
  let job = job_of_submit (call_ok c (Protocol.Submit spec)) in
  let status () =
    match call_ok c (Protocol.Status job) with
    | Protocol.Job v -> v
    | r -> fail (Format.asprintf "expected job view, got %a" Protocol.pp_response r)
  in
  wait_for (fun () -> (status ()).Protocol.state = Protocol.Done) "the job to finish";
  let by_status = status () in
  let by_events = terminal_view c job in
  List.iter
    (fun (what, (v : Protocol.job_view)) ->
      check Alcotest.string (what ^ ": done") "done" (Protocol.job_state_to_string v.Protocol.state);
      check Alcotest.(option string) (what ^ ": label") (Some "released") v.Protocol.label;
      check Alcotest.(option bool) (what ^ ": certified") (Some true) v.Protocol.certified;
      check Alcotest.bool (what ^ ": stages") true (v.Protocol.stages <> []);
      check Alcotest.int (what ^ ": assignment") 30
        (Array.length (Option.value ~default:[||] v.Protocol.assignment)))
    [ ("status", by_status); ("events", by_events) ];
  check Alcotest.(option (float 0.0)) "same cost" by_status.Protocol.cost by_events.Protocol.cost;
  check
    Alcotest.(option (array int))
    "same assignment" by_status.Protocol.assignment by_events.Protocol.assignment;
  check Alcotest.(option string) "same label" by_status.Protocol.label by_events.Protocol.label;
  check Alcotest.(list string) "same stages" by_status.Protocol.stages by_events.Protocol.stages;
  check Alcotest.(option string) "same winner" by_status.Protocol.winner by_events.Protocol.winner;
  Client.close c

let test_finished_jobs_release_instances () =
  let text = netlist_text ~n:100 ~wires:600 ~seed:21 in
  let nl =
    match Qbpart_netlist.Parser.parse_string text with
    | Ok nl -> nl
    | Error e -> fail (Qbpart_netlist.Parser.error_to_string e)
  in
  (* a loose budget on every wire: timing text that never binds *)
  let cons = Qbpart_timing.Constraints.Builder.create ~n:100 in
  Qbpart_netlist.Netlist.iter_wires nl (fun w ->
      Qbpart_timing.Constraints.Builder.add_sym cons (Qbpart_netlist.Wire.u w)
        (Qbpart_netlist.Wire.v w) 5.0);
  let timing =
    Qbpart_timing.Constraints_io.to_string nl (Qbpart_timing.Constraints.Builder.build cons)
  in
  (* every submission decodes into fresh strings, as off the wire *)
  let fresh s = Bytes.to_string (Bytes.of_string s) in
  let spec () =
    {
      (small_grid (base_spec (fresh text))) with
      Protocol.timing = Some (Protocol.Inline (fresh timing));
      iterations = 5;
      label = Some "mem";
    }
  in
  let instance_words =
    let s = spec () in
    match Scheduler.problem_of_spec s with
    | Ok p -> Obj.reachable_words (Obj.repr (s, p))
    | Error (_, m) -> fail m
  in
  (* [jobs] submissions, every second one cancelled at once (queued or
     running), all driven to a terminal state, then the scheduler
     drained: the words it still reaches *)
  let retained jobs =
    let sched =
      Scheduler.create ~workers:1 ~checkpoint_dir:(temp_dir ()) ~queue_capacity:jobs
        ~metrics:(Metrics.create ()) ()
    in
    let ids =
      List.init jobs (fun k ->
          match Scheduler.submit sched (spec ()) with
          | Ok (id, _) ->
            if k mod 2 = 1 then ignore (Scheduler.cancel sched id);
            id
          | Error (_, m) -> fail m)
    in
    List.iter
      (fun id ->
        wait_for
          (fun () ->
            match Scheduler.view sched id with
            | Some v -> (
              match v.Protocol.state with
              | Protocol.Done | Protocol.Failed | Protocol.Cancelled -> true
              | Protocol.Queued | Protocol.Running -> false)
            | None -> false)
          ("job " ^ id ^ " to end"))
      ids;
    Scheduler.drain sched;
    Obj.reachable_words (Obj.repr sched)
  in
  let few = retained 2 and many = retained 10 in
  let per_job = (many - few) / 8 in
  check Alcotest.bool
    (Printf.sprintf "%d words kept per finished job, far below the %d of one instance" per_job
       instance_words)
    true
    (8 * per_job < instance_words)

(* ------------------------------------------------------------------ *)
(* The Events stream wakes on the scheduler's state changes instead of
   polling: a job's terminal frame follows its finish within
   milliseconds.  A sample is the frame's arrival minus the job's
   finish, which the client reads off the job's view: the finish is
   submit + [queued_seconds] + [wall_seconds], and the daemon runs in
   this process, so both times come from one clock.  The submit time is
   taken just before the request, so the sample errs long by the time
   the daemon takes to admit the small netlist.  The job runs for
   longer than the stream waits to attach (a random 0-50 ms, so a
   stream that polled every 50 ms would see the finish at a uniformly
   random point of its period), so the stream finds it queued or
   running (its first event's seq: 0 queued, 1 running, 2 finished);
   only those samples count.  The bound is on the median of five: a
   50 ms poll passes it with probability under 1 %.  On a 2-core box
   the samples read 0.3-0.8 ms (medians under 1 ms beside two busy
   loops), and with a 50 ms poll the medians read 5-27 ms. *)

let test_events_wake_on_state_changes () =
  let dir = temp_dir () in
  let socket_path = Filename.concat dir "d.sock" in
  let config =
    { (Server.default_config ~socket_path) with Server.workers = 1; checkpoint_dir = dir }
  in
  let server =
    match Server.create config with Ok s -> s | Error e -> fail ("server create: " ^ e)
  in
  let serve_thread = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Thread.join serve_thread)
  @@ fun () ->
  let c =
    match Client.connect (Client.Unix_socket socket_path) with
    | Ok c -> c
    | Error e -> fail ("connect: " ^ e)
  in
  let spec =
    {
      (small_grid (base_spec (netlist_text ~n:100 ~wires:400 ~seed:5))) with
      Protocol.iterations = 30;
      starts = 200;
    }
  in
  let rng = Random.State.make [| 25 |] in
  (* Submit, wait, then the job's Events stream from seq 0: whether the
     stream found the job live, the time from the job's finish to its
     terminal frame, and the job's wall time *)
  let sample () =
    let t0 = Unix.gettimeofday () in
    let job = job_of_submit (call_ok c (Protocol.Submit spec)) in
    Thread.delay (Random.State.float rng 0.05);
    let first = call_ok c (Protocol.Events { job; since = 0 }) in
    let rec last = function
      | Protocol.Job v -> v
      | Protocol.Event _ -> (
        match Client.read_response c with
        | Ok r -> last r
        | Error e -> fail ("event stream: " ^ e))
      | r -> fail (Format.asprintf "unexpected stream frame %a" Protocol.pp_response r)
    in
    let v = last first in
    let arrival = Unix.gettimeofday () in
    check Alcotest.string "done" "done" (Protocol.job_state_to_string v.Protocol.state);
    let finish = t0 +. v.Protocol.queued_seconds +. v.Protocol.wall_seconds in
    let live = match first with Protocol.Event { seq; _ } -> seq < 2 | _ -> false in
    (live, arrival -. finish, v.Protocol.wall_seconds)
  in
  let rec collect live walls attempts =
    if List.length live = 5 || attempts = 0 then (live, walls)
    else
      match sample () with
      | true, dt, wall -> collect (dt :: live) (wall :: walls) (attempts - 1)
      | false, _, wall -> collect live (wall :: walls) (attempts - 1)
  in
  let live, walls = collect [] [] 20 in
  let live = List.sort compare live in
  Client.close c;
  let ms l = String.concat " " (List.map (fun x -> Printf.sprintf "%.1f" (1000.0 *. x)) l) in
  check Alcotest.int
    (Printf.sprintf "5 streams found their job live (job walls %s ms)" (ms (List.rev walls)))
    5 (List.length live);
  let median = List.nth live 2 in
  check Alcotest.bool
    (Printf.sprintf "median finish-to-terminal-frame %.1f ms < 5 ms (samples %s)"
       (1000.0 *. median) (ms live))
    true (median < 0.005)

(* ------------------------------------------------------------------ *)
(* Client hardening: a server that accepts and then goes silent *)

let test_client_hung_server_timeout () =
  let dir = temp_dir () in
  let path = Filename.concat dir "hung.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 4;
  let stop = Atomic.make false in
  let mu = Mutex.create () in
  let accepted = ref [] in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ lfd ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ -> (
            (* accept, then never write a byte back *)
            match Unix.accept lfd with
            | fd, _ ->
              Mutex.lock mu;
              accepted := fd :: !accepted;
              Mutex.unlock mu
            | exception Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th;
      Mutex.lock mu;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !accepted;
      Mutex.unlock mu;
      Unix.close lfd)
  @@ fun () ->
  (* a single call times out with a structured message, never hangs *)
  (match Client.connect ~read_timeout:0.3 (Client.Unix_socket path) with
  | Error e -> fail ("connect: " ^ e)
  | Ok c ->
    let t0 = Unix.gettimeofday () in
    let r = Client.call c Protocol.Heartbeat in
    Client.close c;
    (match r with
    | Ok _ -> fail "a silent server produced a response"
    | Error m ->
      check Alcotest.bool ("timeout is structured: " ^ m) true (contains ~needle:"timed out" m);
      check Alcotest.bool "deadline honoured" true (Unix.gettimeofday () -. t0 < 5.0)));
  (* request-level retries stay bounded and report the attempt count *)
  match
    Client.request
      ~backoff:
        { Client.default_backoff with Client.attempts = 2; base_delay = 0.01; max_delay = 0.02 }
      ~read_timeout:0.2 (Client.Unix_socket path) Protocol.Metrics
  with
  | Ok _ -> fail "retrying against a silent server succeeded"
  | Error m ->
    check Alcotest.bool ("attempts reported: " ^ m) true (contains ~needle:"2 attempts" m)

(* ------------------------------------------------------------------ *)
(* Failover: a replacement shard resumes the dead shard's job from the
   replicated checkpoint store, bit-identical to an uninterrupted run *)

let test_failover_resumes_bit_identical () =
  let dir = temp_dir () in
  let store = Filename.concat dir "store" in
  Unix.mkdir store 0o700;
  let live = ref [] in
  let start_shard name ~replicate =
    let socket_path = Filename.concat dir (name ^ ".sock") in
    let ckpt_dir = Filename.concat dir (name ^ "-ckpts") in
    Unix.mkdir ckpt_dir 0o700;
    let config =
      { (Server.default_config ~socket_path) with Server.max_queue = 4; workers = 1;
        checkpoint_dir = ckpt_dir; replicate_dir = replicate; shard_id = name }
    in
    match Server.create config with
    | Error e -> fail ("server create: " ^ e)
    | Ok s ->
      let th = Thread.create Server.serve s in
      live := (s, th) :: !live;
      (s, socket_path, th)
  in
  let connect path =
    match Client.connect (Client.Unix_socket path) with
    | Ok c -> c
    | Error e -> fail ("connect: " ^ e)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (s, th) ->
          Server.request_drain s;
          Thread.join th)
        !live)
  @@ fun () ->
  let text = netlist_text ~n:40 ~wires:120 ~seed:11 in
  let spec =
    { (small_grid (base_spec text)) with
      Protocol.starts = 40; iterations = 1500; seed = 21; label = Some "failover" }
  in
  (* shard A starts the portfolio, replicating each checkpoint into the
     shared store, then dies mid-flight (drain stands in for SIGKILL —
     either way the store is all a replacement gets to use) *)
  let a, sock_a, th_a = start_shard "shard-a" ~replicate:(Some store) in
  let ca = connect sock_a in
  let _j1 = job_of_submit (call_ok ca (Protocol.Submit spec)) in
  wait_for (fun () -> Array.length (Sys.readdir store) > 0) "a checkpoint to reach the store";
  Server.request_drain a;
  Thread.join th_a;
  Client.close ca;
  (* the replacement shard finds the dead shard's checkpoint in the
     store (keyed by instance hash) and resumes it *)
  let _b, sock_b, _th_b = start_shard "shard-b" ~replicate:(Some store) in
  let cb = connect sock_b in
  let j2 = job_of_submit (call_ok cb (Protocol.Submit spec)) in
  let v2 =
    match Client.wait ~timeout:120.0 cb j2 with
    | Ok v -> v
    | Error e -> fail ("waiting on shard B: " ^ e)
  in
  Client.close cb;
  check Alcotest.string "resumed job done" "done" (Protocol.job_state_to_string v2.Protocol.state);
  check Alcotest.(option bool) "resumed job certified" (Some true) v2.Protocol.certified;
  (match v2.Protocol.resumed_from with
  | Some _ -> ()
  | None -> fail "replacement shard did not resume from the store");
  (* an untouched single-node run of the same spec *)
  let _c, sock_c, _th_c = start_shard "shard-c" ~replicate:None in
  let cc = connect sock_c in
  let j3 = job_of_submit (call_ok cc (Protocol.Submit spec)) in
  let v3 =
    match Client.wait ~timeout:120.0 cc j3 with
    | Ok v -> v
    | Error e -> fail ("waiting on shard C: " ^ e)
  in
  Client.close cc;
  check Alcotest.string "fresh job done" "done" (Protocol.job_state_to_string v3.Protocol.state);
  check Alcotest.(option bool) "fresh job certified" (Some true) v3.Protocol.certified;
  (match v3.Protocol.resumed_from with
  | None -> ()
  | Some _ -> fail "fresh run claims a resume");
  (* the failover answer is the uninterrupted answer, to the last bit *)
  let bits what = function
    | Some c -> Int64.bits_of_float c
    | None -> fail (what ^ " carried no cost")
  in
  check Alcotest.bool "identical certified cost, bit for bit" true
    (Int64.equal (bits "resumed" v2.Protocol.cost) (bits "fresh" v3.Protocol.cost));
  match (v2.Protocol.assignment, v3.Protocol.assignment) with
  | Some x, Some y -> check Alcotest.bool "identical assignment" true (x = y)
  | _ -> fail "missing assignment"

(* ------------------------------------------------------------------ *)
(* Router: submit through the front door, kill the owning shard, and
   watch the job fail over to the survivor *)

(* A scripted fake shard: accepts the submit, acks heartbeats, then
   vanishes when [alive] is cleared — the in-process stand-in for a
   SIGKILLed worker.  The router opens a fresh connection per forward,
   so each connection answers at most a few frames. *)
let fake_shard path ~alive =
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 8;
  Thread.create
    (fun () ->
      let conns = ref [] in
      while Atomic.get alive do
        match Unix.select [ lfd ] [] [] 0.05 with
        | [], _, _ -> ()
        | _ -> (
          match Unix.accept lfd with
          | fd, _ ->
            (* bound every read so a dead router never wedges the test *)
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
            let th =
              Thread.create
                (fun () ->
                  let ic = Unix.in_channel_of_descr fd in
                  let oc = Unix.out_channel_of_descr fd in
                  (try
                     let rec loop () =
                       match Frame.read ic with
                       | Ok payload when Atomic.get alive ->
                         (match Protocol.decode_request payload with
                         | Ok (Protocol.Submit _) ->
                           Frame.write oc
                             (Protocol.encode_response
                                (Protocol.Submitted { job = "f1"; queue_depth = 0 }))
                         | Ok Protocol.Heartbeat ->
                           Frame.write oc
                             (Protocol.encode_response
                                (Protocol.Heartbeat_ack
                                   {
                                     Protocol.shard = "fake";
                                     uptime = 1.0;
                                     hb_queue_depth = 0;
                                     hb_running = 1;
                                     hb_draining = false;
                                   }))
                         | Ok (Protocol.Status id) ->
                           Frame.write oc
                             (Protocol.encode_response
                                (Protocol.Job
                                   {
                                     Protocol.id;
                                     state = Protocol.Running;
                                     label = None;
                                     queued_seconds = 0.0;
                                     wall_seconds = 0.1;
                                     cost = None;
                                     certified = None;
                                     interrupted = false;
                                     winner = None;
                                     stages = [];
                                     error = None;
                                     checkpoint = None;
                                     assignment = None;
                                     resumed_from = None;
                                   }))
                         | _ -> ());
                         loop ()
                       | _ -> ()
                     in
                     loop ()
                   with Sys_error _ | Unix.Unix_error _ -> ());
                  try Unix.close fd with Unix.Unix_error _ -> ())
                ()
            in
            conns := th :: !conns
          | exception Unix.Unix_error _ -> ())
      done;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      List.iter Thread.join !conns)
    ()

let test_router_failover () =
  let dir = temp_dir () in
  let fake_sock = Filename.concat dir "fake.sock" in
  let real_sock = Filename.concat dir "real.sock" in
  let router_sock = Filename.concat dir "router.sock" in
  let fake_alive = Atomic.make true in
  let fake_th = fake_shard fake_sock ~alive:fake_alive in
  (* the "real" shard is down at submit time, so the placement lands on
     the fake one no matter where the ring points first *)
  let rconfig =
    {
      (Router.default_config ~socket_path:router_sock
         ~shards:
           [ ("real", Client.Unix_socket real_sock); ("fake", Client.Unix_socket fake_sock) ])
      with
      Router.hb_interval = 0.1;
      forward_connect_timeout = 0.5;
      forward_read_timeout = 2.0;
    }
  in
  let router =
    match Router.create rconfig with Ok r -> r | Error e -> fail ("router create: " ^ e)
  in
  let router_th = Thread.create Router.serve router in
  let real = ref None in
  Fun.protect
    ~finally:(fun () ->
      Router.request_drain router;
      Thread.join router_th;
      (match !real with
      | Some (s, th) ->
        Server.request_drain s;
        Thread.join th
      | None -> ());
      Atomic.set fake_alive false;
      Thread.join fake_th)
  @@ fun () ->
  let c =
    match Client.connect (Client.Unix_socket router_sock) with
    | Ok c -> c
    | Error e -> fail ("connect to router: " ^ e)
  in
  (* the router answers heartbeats with its own identity *)
  (match call_ok c Protocol.Heartbeat with
  | Protocol.Heartbeat_ack hb -> check Alcotest.string "router identity" "qbpart-router" hb.Protocol.shard
  | r -> fail (Format.asprintf "expected heartbeat ack, got %a" Protocol.pp_response r));
  let text = netlist_text ~n:30 ~wires:80 ~seed:5 in
  let spec = { (small_grid (base_spec text)) with Protocol.iterations = 60; seed = 4 } in
  let j = job_of_submit (call_ok c (Protocol.Submit spec)) in
  check Alcotest.bool "router ids live in their own namespace" true
    (String.length j > 0 && j.[0] = 'r');
  (* the fake shard holds the job; now bring up the survivor and kill
     the fake — the health loop must declare it dead and re-place the
     orphan, which then runs to completion on the real shard *)
  let real_config =
    { (Server.default_config ~socket_path:real_sock) with Server.max_queue = 4; workers = 1;
      checkpoint_dir = dir; shard_id = "real" }
  in
  (match Server.create real_config with
  | Ok s -> real := Some (s, Thread.create Server.serve s)
  | Error e -> fail ("real shard create: " ^ e));
  Atomic.set fake_alive false;
  let v =
    match Client.wait ~timeout:60.0 c j with
    | Ok v -> v
    | Error e -> fail ("waiting through the router: " ^ e)
  in
  check Alcotest.string "failed-over job done" "done" (Protocol.job_state_to_string v.Protocol.state);
  check Alcotest.(option bool) "failed-over job certified" (Some true) v.Protocol.certified;
  check Alcotest.string "view carries the router id" j v.Protocol.id;
  (* unknown ids are a structured not_found, as on a single daemon *)
  (match call_ok c (Protocol.Status "r999") with
  | Protocol.Error { code = Protocol.Not_found; _ } -> ()
  | r -> fail (Format.asprintf "expected not_found, got %a" Protocol.pp_response r));
  (* metrics aggregate the live fleet *)
  (match call_ok c Protocol.Metrics with
  | Protocol.Metrics_snapshot m -> check Alcotest.bool "fleet accepted >= 1" true (m.Protocol.accepted >= 1)
  | r -> fail (Format.asprintf "expected metrics, got %a" Protocol.pp_response r));
  (* the events stream through the router terminates on the job view *)
  (match Client.call c (Protocol.Events { job = j; since = 0 }) with
  | Error e -> fail ("events: " ^ e)
  | Ok first ->
    let rec last = function
      | Protocol.Job v -> v
      | Protocol.Event _ -> (
        match Client.read_response c with
        | Ok r -> last r
        | Error e -> fail ("event stream: " ^ e))
      | r -> fail (Format.asprintf "unexpected stream frame %a" Protocol.pp_response r)
    in
    check Alcotest.string "stream ends terminal" "done"
      (Protocol.job_state_to_string (last first).Protocol.state));
  (* drain through the front door winds down the whole fleet *)
  (match call_ok c Protocol.Drain with
  | Protocol.Drain_ack -> ()
  | r -> fail (Format.asprintf "expected drain ack, got %a" Protocol.pp_response r));
  Client.close c

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "scalar round-trips" `Quick test_json_scalars;
          Alcotest.test_case "float round-trips are exact" `Quick test_json_float_round_trip;
        ] );
      ( "frame",
        Alcotest.test_case "limits and malformed input" `Quick test_frame_limits
        :: Alcotest.test_case "back-to-back frames" `Quick test_frame_sequence
        :: qsuite [ test_frame_round_trip; test_frame_truncation ] );
      ( "netfault",
        [
          Alcotest.test_case "spec parsing" `Quick test_netfault_spec;
          Alcotest.test_case "seeded schedules are reproducible" `Quick test_netfault_determinism;
          Alcotest.test_case "faults applied at the frame layer" `Quick test_netfault_frame_write;
        ] );
      ( "protocol",
        Alcotest.test_case "rejects malformed requests" `Quick test_protocol_rejects
        :: Alcotest.test_case "tolerates unknown fields" `Quick test_protocol_tolerates_unknown_fields
        :: qsuite
             [
               test_request_round_trip;
               test_response_round_trip;
               test_request_damage;
               test_response_damage;
             ] );
      ( "queue",
        [
          Alcotest.test_case "fifo and overload" `Quick test_queue_fifo;
          Alcotest.test_case "zero capacity" `Quick test_queue_zero_capacity;
          Alcotest.test_case "priority weighting" `Quick test_queue_priority_weighting;
          Alcotest.test_case "interactive sheds newest batch" `Quick test_queue_shed;
          Alcotest.test_case "drain semantics" `Quick test_queue_drain;
          Alcotest.test_case "drain wakes blocked pop" `Quick test_queue_drain_wakes_blocked_pop;
        ] );
      ("metrics", [ Alcotest.test_case "snapshot" `Quick test_metrics_snapshot ]);
      ("scheduler", [ Alcotest.test_case "spec validation" `Quick test_scheduler_validation ]);
      ( "session",
        [
          Alcotest.test_case "fault spec parsing" `Quick test_session_fault_spec;
          Alcotest.test_case "integrity failure demotes to certified cold" `Quick
            test_session_integrity_demotes_to_cold;
          Alcotest.test_case "warm ECO stream answers pinned" `Quick
            test_session_pinned_eco_stream;
          Alcotest.test_case "open runs an evolve spec as evolve" `Quick
            test_session_open_runs_evolve;
          Alcotest.test_case "two sessions on one instance keep their own" `Quick
            test_session_two_on_one_instance;
        ] );
      ( "client",
        [
          Alcotest.test_case "hung server times out, retries stay bounded" `Slow
            test_client_hung_server_timeout;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "serving contract" `Slow test_e2e_serving_contract;
          Alcotest.test_case "drain cancels queued jobs" `Slow test_drain_cancels_queued_jobs;
          Alcotest.test_case "finished job: status and events agree" `Slow
            test_finished_views_agree;
          Alcotest.test_case "finished jobs release their instances" `Slow
            test_finished_jobs_release_instances;
          Alcotest.test_case "events wake on state changes" `Slow
            test_events_wake_on_state_changes;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "failover resumes bit-identical" `Slow
            test_failover_resumes_bit_identical;
          Alcotest.test_case "router fails a job over to the survivor" `Slow
            test_router_failover;
        ] );
    ]
