(* Chaos and load harness for the qbpartd fleet.

   Spawns a real fleet — N worker daemons behind a router, all separate
   processes — and drives it through four scenarios, measuring offered
   load against completed certified answers:

   - steady      3 healthy shards, moderate concurrent load
   - overload    tiny per-shard queues, load well past capacity; the
                 retrying client's backoff must absorb the overloaded
                 refusals until every job lands
   - drain       SIGTERM one shard mid-run; the router must spill its
                 share to the survivors
   - shard_kill  seeded network faults on every response path, then
                 SIGKILL one shard mid-run; orphaned jobs must fail
                 over and resume from the replicated checkpoint store

   Every scenario reports jobs/sec and p50/p99 completion latency, and
   fails if any job is lost or any served answer is uncertified.  The
   rows land in BENCH_server.json (schema qbpart-bench-server/2) next
   to the single-daemon depth sweep from [bench --only-server], plus a
   flat [server_summary] object for the regression gate:
   [*_per_sec] higher is better, [*_s] lower is better.

   Usage: chaos [--out PATH] [--merge PATH] [--quick] [--qbpartd PATH]

   [--merge PATH] folds the scenario rows into an existing v1/v2
   BENCH_server.json, preserving its "server" key. *)

module Json = Qbpart_server.Json
module Protocol = Qbpart_server.Protocol
module Client = Qbpart_server.Client
module Generator = Qbpart_netlist.Generator
module Printer = Qbpart_netlist.Printer
module Rng = Qbpart_netlist.Rng

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("chaos: " ^ m); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Locating the daemon binary *)

let default_qbpartd () =
  (* the harness lives in _build/default/workloads/, the daemon in
     _build/default/bin/ *)
  let near =
    Filename.concat
      (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
      "qbpartd.exe"
  in
  if Sys.file_exists near then near else "qbpartd"

(* ------------------------------------------------------------------ *)
(* Process control *)

let spawn argv ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin fd fd in
  Unix.close fd;
  pid

(* reap with a deadline; escalate to SIGKILL rather than hang the CI *)
let reap ?(timeout = 20.0) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go killed =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if (not killed) && Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        go true
      end
      else begin
        Thread.delay 0.05;
        go killed
      end
    | _, status -> status
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go killed
  in
  go false

let wait_for ?(timeout = 30.0) pred what =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then die "timed out waiting for %s" what
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let socket_ready path =
  match Client.connect ~connect_timeout:0.5 ~read_timeout:1.0 (Client.Unix_socket path) with
  | Ok c ->
    Client.close c;
    true
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Fleet assembly *)

type proc = { name : string; pid : int; socket : string }

type fleet = {
  dir : string;
  router_socket : string;
  router : proc;
  mutable workers : proc list;
}

let qbpartd_bin = ref ""

let start_worker ~dir ~store ~name ~max_queue ~fault ~eco_fault =
  let socket = Filename.concat dir (name ^ ".sock") in
  let ckpts = Filename.concat dir (name ^ "-ckpts") in
  if not (Sys.file_exists ckpts) then Unix.mkdir ckpts 0o700;
  let argv =
    [
      !qbpartd_bin; "--socket"; socket; "--max-queue"; string_of_int max_queue;
      "--workers"; "1"; "--checkpoint-dir"; ckpts; "--shard-id"; name;
    ]
    @ (match store with Some s -> [ "--replicate"; s ] | None -> [])
    @ (match fault with Some spec -> [ "--fault"; spec ] | None -> [])
    @ (match eco_fault with Some spec -> [ "--eco-fault"; spec ] | None -> [])
  in
  let pid = spawn (Array.of_list argv) ~log:(Filename.concat dir (name ^ ".log")) in
  wait_for (fun () -> socket_ready socket) (name ^ " socket");
  { name; pid; socket }

let start_fleet ~dir ~shards ~max_queue ?store ?fault ?eco_fault () =
  let store =
    match store with
    | Some true ->
      let s = Filename.concat dir "store" in
      if not (Sys.file_exists s) then Unix.mkdir s 0o700;
      Some s
    | _ -> None
  in
  let workers =
    List.init shards (fun i ->
        start_worker ~dir ~store ~name:(Printf.sprintf "shard-%d" i) ~max_queue ~fault
          ~eco_fault)
  in
  let router_socket = Filename.concat dir "router.sock" in
  let argv =
    [
      !qbpartd_bin; "--route"; "--socket"; router_socket; "--hb-interval"; "0.25";
      "--fail-threshold"; "2"; "--shard-id"; "chaos-router";
    ]
    @ List.concat_map (fun w -> [ "--shard"; Printf.sprintf "%s=%s" w.name w.socket ]) workers
  in
  let pid = spawn (Array.of_list argv) ~log:(Filename.concat dir "router.log") in
  wait_for (fun () -> socket_ready router_socket) "router socket";
  { dir; router_socket; router = { name = "router"; pid; socket = router_socket }; workers }

let stop_fleet fleet =
  (* one drain at the front door winds down the whole fleet *)
  (match
     Client.request
       ~backoff:{ Client.default_backoff with Client.attempts = 2 }
       ~connect_timeout:2.0 ~read_timeout:10.0
       (Client.Unix_socket fleet.router_socket) Protocol.Drain
   with
  | Ok _ | Error _ -> ());
  ignore (reap fleet.router.pid);
  List.iter (fun w -> ignore (reap w.pid)) fleet.workers

(* ------------------------------------------------------------------ *)
(* Load generation *)

let backoff =
  { Client.attempts = 12; base_delay = 0.05; max_delay = 0.5; seed = 99 }

(* submit one job through the router and follow it to a terminal state
   over fresh connections — resilient to any single connection dying.
   Jobs that die through no fault of their own (shed by admission
   control, cancelled by a shard drain) are resubmitted: resubmission
   is idempotent by instance hash, so a fleet with a replicated store
   resumes rather than recomputes. *)
let run_job addr spec =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. 120.0 in
  let rec submit resubmits =
    match
      Client.request ~backoff ~connect_timeout:2.0 ~read_timeout:30.0 addr (Protocol.Submit spec)
    with
    | Error e -> Error ("submit: " ^ e)
    | Ok (Protocol.Error { code; message }) ->
      Error (Printf.sprintf "submit refused: %s: %s" (Protocol.error_code_to_string code) message)
    | Ok (Protocol.Submitted { job; _ }) -> poll resubmits job
    | Ok r -> Error (Format.asprintf "unexpected submit response %a" Protocol.pp_response r)
  and poll resubmits job =
    if Unix.gettimeofday () > deadline then Error (job ^ ": timed out")
    else
      match
        Client.request ~backoff ~connect_timeout:2.0 ~read_timeout:30.0 addr (Protocol.Status job)
      with
      | Error e -> Error (job ^ ": " ^ e)
      | Ok (Protocol.Job v) -> (
        match v.Protocol.state with
        | Protocol.Done ->
          if v.Protocol.certified = Some true then Ok (Unix.gettimeofday () -. t0)
          else Error (job ^ ": done but uncertified")
        | Protocol.Failed ->
          Error (job ^ ": failed: " ^ Option.value ~default:"?" v.Protocol.error)
        | Protocol.Cancelled ->
          if resubmits > 0 then begin
            Thread.delay 0.05;
            submit (resubmits - 1)
          end
          else Error (job ^ ": cancelled")
        | Protocol.Queued | Protocol.Running ->
          Thread.delay 0.05;
          poll resubmits job)
      | Ok r -> Error (Format.asprintf "%s: unexpected %a" job Protocol.pp_response r)
  in
  submit 10

type outcome = {
  offered : int;
  completed : int;
  wall : float;
  latencies : float array; (* sorted, completed jobs only *)
  errors : string list;
}

let offer ~addr ~threads ~per_thread ~spec_of ~mid =
  let total = threads * per_thread in
  let latencies = Array.make total nan in
  let errors = ref [] in
  let mu = Mutex.create () in
  let done_count = ref 0 in
  let t0 = Unix.gettimeofday () in
  let worker k =
    for i = 0 to per_thread - 1 do
      let slot = (k * per_thread) + i in
      (match run_job addr (spec_of slot) with
      | Ok lat -> latencies.(slot) <- lat
      | Error e ->
        Mutex.lock mu;
        errors := e :: !errors;
        Mutex.unlock mu);
      Mutex.lock mu;
      incr done_count;
      Mutex.unlock mu
    done
  in
  (* the chaos action fires once a third of the load has completed, so
     there is always work both behind and ahead of the disruption *)
  let chaos_th =
    Thread.create
      (fun () ->
        match mid with
        | None -> ()
        | Some f ->
          let trigger () =
            Mutex.lock mu;
            let d = !done_count in
            Mutex.unlock mu;
            d * 3 >= total
          in
          let deadline = Unix.gettimeofday () +. 60.0 in
          while (not (trigger ())) && Unix.gettimeofday () < deadline do
            Thread.delay 0.02
          done;
          f ())
      ()
  in
  let ths = List.init threads (fun k -> Thread.create worker k) in
  List.iter Thread.join ths;
  Thread.join chaos_th;
  let wall = Unix.gettimeofday () -. t0 in
  let ok = Array.to_list latencies |> List.filter (fun l -> not (Float.is_nan l)) in
  let sorted = Array.of_list ok in
  Array.sort compare sorted;
  { offered = total; completed = Array.length sorted; wall; latencies = sorted; errors = !errors }

let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.0
  | n -> sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

(* ------------------------------------------------------------------ *)
(* Scenarios *)

type scenario_result = { label : string; outcome : outcome; extra : (string * Json.t) list }

let circuits ~quick =
  (* distinct circuits hash to distinct ring points, so the load
     actually spreads across the shards *)
  let n = if quick then 20 else 28 in
  Array.init 8 (fun i ->
      let rng = Rng.create (100 + i) in
      Printer.to_string (Generator.generate rng (Generator.default_params ~n ~wires:(3 * n))))

let spec_of_slot ~texts ~iterations ~starts slot =
  {
    (Protocol.default_submit ~netlist:(Protocol.Inline texts.(slot mod Array.length texts))) with
    Protocol.rows = 2;
    cols = 2;
    slack = 1.4;
    iterations;
    starts;
    seed = 1 + slot;
    label = Some (Printf.sprintf "chaos-%d" slot);
    priority = (if slot mod 4 = 0 then Protocol.Interactive else Protocol.Batch);
  }

let fleet_metrics addr =
  match
    Client.request ~backoff:{ backoff with Client.attempts = 3 } ~connect_timeout:2.0
      ~read_timeout:10.0 addr Protocol.Metrics
  with
  | Ok (Protocol.Metrics_snapshot m) ->
    [ ("fleet_rejected", Json.Int m.Protocol.rejected); ("fleet_shed", Json.Int m.Protocol.shed) ]
  | _ -> []

let scenario ~quick ~texts ~label ~shards ~max_queue ?store ?fault ~threads ~per_thread
    ~iterations ~starts ~mid_action () =
  Printf.printf "scenario %-10s  %d shards, %d clients x %d jobs...\n%!" label shards threads
    per_thread;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qbpart-chaos-%s-%d" label (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  let fleet = start_fleet ~dir ~shards ~max_queue ?store ?fault () in
  let addr = Client.Unix_socket fleet.router_socket in
  let mid = Option.map (fun f () -> f fleet) mid_action in
  let outcome =
    offer ~addr ~threads ~per_thread ~spec_of:(spec_of_slot ~texts ~iterations ~starts) ~mid
  in
  let extra = fleet_metrics addr in
  stop_fleet fleet;
  let p50 = percentile outcome.latencies 0.50 and p99 = percentile outcome.latencies 0.99 in
  Printf.printf "  %d/%d jobs certified in %.2fs  %.1f jobs/s  p50 %.3fs  p99 %.3fs%s\n%!"
    outcome.completed outcome.offered outcome.wall
    (float_of_int outcome.completed /. outcome.wall)
    p50 p99
    (if outcome.errors = [] then "" else Printf.sprintf "  (%d FAILED)" (List.length outcome.errors));
  List.iter (fun e -> Printf.printf "    failure: %s\n%!" e) outcome.errors;
  ignore quick;
  { label; outcome; extra }

let row { label; outcome; extra } =
  let p50 = percentile outcome.latencies 0.50 and p99 = percentile outcome.latencies 0.99 in
  Json.Obj
    ([
       ("scenario", Json.String label);
       ("offered", Json.Int outcome.offered);
       ("completed", Json.Int outcome.completed);
       ("wall_seconds", Json.Float outcome.wall);
       ("jobs_per_sec", Json.Float (float_of_int outcome.completed /. outcome.wall));
       ("p50_latency_s", Json.Float p50);
       ("p99_latency_s", Json.Float p99);
       ("all_certified", Json.Bool (outcome.errors = [] && outcome.completed = outcome.offered));
     ]
    @ extra)

(* ------------------------------------------------------------------ *)
(* ECO delta storm

   Each client thread opens a session through the router and streams a
   run of deltas against it.  Every shard is armed with a deterministic
   ECO fault (a corrupted cached incumbent), and one shard is
   SIGKILLed mid-stream; sessions are sticky, so clients that lose
   their shard must observe the failure and re-open.  The pass
   condition is absolute: every served answer certified, zero
   uncertified answers, and the armed fault visible as
   [integrity_failures > 0] in the surviving fleet's metrics. *)

let eco_call addr req =
  Client.request ~backoff ~connect_timeout:2.0 ~read_timeout:60.0 addr req

(* self-contained deltas over the generator's stable [c<j>] names:
   wires, tightened retimes, and adds that only wire to base
   components, so any delta is valid against any session state *)
let delta_text ~n ~slot d =
  let a = (slot + (3 * d)) mod n in
  let b = (a + 1 + (d mod (n - 2))) mod n in
  match d mod 3 with
  | 0 -> Printf.sprintf "add x%d_%d 2.0\nwire x%d_%d c%d 1.0\n" slot d slot d a
  | 1 -> Printf.sprintf "wire c%d c%d 1.5\n" a b
  | _ -> Printf.sprintf "retime c%d c%d %g\n" a b (5.0 +. float_of_int (d mod 4))

let run_eco_stream addr ~spec ~n ~slot ~deltas ~latencies ~mu ~done_count ~uncertified =
  let bump () =
    Mutex.lock mu;
    incr done_count;
    Mutex.unlock mu
  in
  let open_sess () =
    match eco_call addr (Protocol.Session_open spec) with
    | Ok (Protocol.Eco_result v) ->
      if v.Protocol.eco_certified then Ok v.Protocol.eco_session
      else begin
        Mutex.lock mu;
        incr uncertified;
        Mutex.unlock mu;
        Error "session open: uncertified answer"
      end
    | Ok (Protocol.Error { code; message }) ->
      Error
        (Printf.sprintf "session open refused: %s: %s"
           (Protocol.error_code_to_string code) message)
    | Ok r -> Error (Format.asprintf "unexpected open response %a" Protocol.pp_response r)
    | Error e -> Error ("session open: " ^ e)
  in
  match open_sess () with
  | Error e ->
    List.init deltas (fun _ -> bump ()) |> ignore;
    [ Printf.sprintf "eco stream %d: %s" slot e ]
  | Ok sid0 ->
    let sid = ref sid0 and seq = ref 0 in
    let errors = ref [] in
    for d = 1 to deltas do
      let text = delta_text ~n ~slot d in
      let t0 = Unix.gettimeofday () in
      let rec attempt tries =
        if tries <= 0 then Error (Printf.sprintf "delta %d: retries exhausted" d)
        else
          match
            eco_call addr
              (Protocol.Eco_submit
                 { session = !sid; seq = !seq + 1; delta = text; force_cold = false })
          with
          | Ok (Protocol.Eco_result v) ->
            if v.Protocol.eco_certified then begin
              seq := v.Protocol.eco_seq;
              latencies.((slot * deltas) + d - 1) <- Unix.gettimeofday () -. t0;
              Ok ()
            end
            else begin
              Mutex.lock mu;
              incr uncertified;
              Mutex.unlock mu;
              Error (Printf.sprintf "delta %d: uncertified answer" d)
            end
          | Ok
              (Protocol.Error
                {
                  code =
                    ( Protocol.Stale_session | Protocol.Unknown_session
                    | Protocol.Unavailable | Protocol.Draining );
                  _;
                }) -> (
            (* injected staleness, or the owning shard died: the
               session is gone — re-open (sticky sessions are not
               failover-transparent) and resend against the fresh one *)
            match open_sess () with
            | Ok s ->
              sid := s;
              seq := 0;
              attempt (tries - 1)
            | Error e -> Error (Printf.sprintf "delta %d: reopen failed: %s" d e))
          | Ok (Protocol.Error { code; message }) ->
            Error
              (Printf.sprintf "delta %d refused: %s: %s" d
                 (Protocol.error_code_to_string code) message)
          | Ok r ->
            Error (Format.asprintf "delta %d: unexpected %a" d Protocol.pp_response r)
          | Error _transport ->
            Thread.delay 0.1;
            attempt (tries - 1)
      in
      (match attempt 6 with
      | Ok () -> ()
      | Error e -> errors := Printf.sprintf "eco stream %d: %s" slot e :: !errors);
      bump ()
    done;
    (match eco_call addr (Protocol.Session_close !sid) with Ok _ | Error _ -> ());
    List.rev !errors

let eco_fleet_metrics addr =
  match
    Client.request ~backoff:{ backoff with Client.attempts = 3 } ~connect_timeout:2.0
      ~read_timeout:10.0 addr Protocol.Metrics
  with
  | Ok (Protocol.Metrics_snapshot m) ->
    Some
      ( m.Protocol.eco_warm_hits,
        m.Protocol.eco_cold_fallbacks,
        m.Protocol.cache_evictions,
        m.Protocol.integrity_failures )
  | _ -> None

let eco_storm ~quick ~texts ~n () =
  let threads = 4 and deltas = if quick then 6 else 12 in
  Printf.printf "scenario %-10s  3 shards, %d sessions x %d deltas (eco fault armed)...\n%!"
    "eco_storm" threads deltas;
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "qbpart-chaos-eco_storm-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  let fleet =
    start_fleet ~dir ~shards:3 ~max_queue:16 ~store:true ~eco_fault:"corrupt=1" ()
  in
  let addr = Client.Unix_socket fleet.router_socket in
  let total = threads * deltas in
  let latencies = Array.make total nan in
  let mu = Mutex.create () in
  let done_count = ref 0 and uncertified = ref 0 in
  let errors = ref [] in
  let t0 = Unix.gettimeofday () in
  let chaos_th =
    Thread.create
      (fun () ->
        let trigger () =
          Mutex.lock mu;
          let d = !done_count in
          Mutex.unlock mu;
          d * 3 >= total
        in
        let deadline = Unix.gettimeofday () +. 60.0 in
        while (not (trigger ())) && Unix.gettimeofday () < deadline do
          Thread.delay 0.02
        done;
        match fleet.workers with
        | _ :: w :: _ ->
          Printf.printf "  SIGKILL %s (pid %d) mid-stream\n%!" w.name w.pid;
          (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
        | _ -> ())
      ()
  in
  let ths =
    List.init threads (fun slot ->
        Thread.create
          (fun () ->
            let spec =
              {
                (Protocol.default_submit
                   ~netlist:(Protocol.Inline texts.(slot mod Array.length texts)))
                with
                Protocol.rows = 2;
                cols = 2;
                slack = 1.4;
                iterations = 30;
                seed = 1 + slot;
                label = Some (Printf.sprintf "eco-%d" slot);
              }
            in
            let es =
              run_eco_stream addr ~spec ~n ~slot ~deltas ~latencies ~mu ~done_count
                ~uncertified
            in
            Mutex.lock mu;
            errors := es @ !errors;
            Mutex.unlock mu)
          ())
  in
  List.iter Thread.join ths;
  Thread.join chaos_th;
  let wall = Unix.gettimeofday () -. t0 in
  let eco_counters = eco_fleet_metrics addr in
  (match eco_counters with
  | Some (_, _, _, integrity) when integrity = 0 ->
    errors := "eco_storm: armed corrupt fault never tripped integrity_failures" :: !errors
  | None -> errors := "eco_storm: no fleet metrics after the storm" :: !errors
  | Some _ -> ());
  if !uncertified > 0 then
    errors := Printf.sprintf "eco_storm: %d uncertified answers served" !uncertified :: !errors;
  stop_fleet fleet;
  let ok = Array.to_list latencies |> List.filter (fun l -> not (Float.is_nan l)) in
  let sorted = Array.of_list ok in
  Array.sort compare sorted;
  let outcome =
    { offered = total; completed = Array.length sorted; wall; latencies = sorted;
      errors = !errors }
  in
  let p50 = percentile sorted 0.50 and p99 = percentile sorted 0.99 in
  Printf.printf "  %d/%d deltas certified in %.2fs  %.1f deltas/s  p50 %.3fs  p99 %.3fs%s\n%!"
    outcome.completed outcome.offered wall
    (float_of_int outcome.completed /. wall)
    p50 p99
    (if !errors = [] then "" else Printf.sprintf "  (%d FAILED)" (List.length !errors));
  List.iter (fun e -> Printf.printf "    failure: %s\n%!" e) !errors;
  let extra =
    match eco_counters with
    | None -> []
    | Some (warm, cold, evict, integrity) ->
      [
        ("eco_warm_hits", Json.Int warm);
        ("eco_cold_fallbacks", Json.Int cold);
        ("cache_evictions", Json.Int evict);
        ("integrity_failures", Json.Int integrity);
        ("uncertified", Json.Int !uncertified);
      ]
  in
  { label = "eco_storm"; outcome; extra }

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let quick = List.mem "--quick" args in
  let out = Option.value ~default:"BENCH_server.json" (opt "--out" args) in
  let merge = opt "--merge" args in
  qbpartd_bin := Option.value ~default:(default_qbpartd ()) (opt "--qbpartd" args);
  if (not (Sys.file_exists !qbpartd_bin)) && not (String.contains !qbpartd_bin '/') then ()
  else if not (Sys.file_exists !qbpartd_bin) then die "no such daemon binary: %s" !qbpartd_bin;
  Printf.printf "qbpartd fleet chaos harness (daemon: %s)\n\n%!" !qbpartd_bin;
  let texts = circuits ~quick in
  let jobs = if quick then 3 else 6 in
  let iterations = if quick then 20 else 50 in
  (* 1: three healthy shards under moderate concurrent load *)
  let steady =
    scenario ~quick ~texts ~label:"steady" ~shards:3 ~max_queue:16 ~threads:4
      ~per_thread:jobs ~iterations ~starts:1 ~mid_action:None ()
  in
  (* 2: per-shard queues of one, offered load far past capacity;
     admission control refuses, the client's jittered backoff retries,
     and every job must still land *)
  let overload =
    scenario ~quick ~texts ~label:"overload" ~shards:3 ~max_queue:1 ~threads:8
      ~per_thread:jobs ~iterations ~starts:1 ~mid_action:None ()
  in
  (* 3: graceful loss — SIGTERM one shard mid-run; its drain is
     visible in heartbeats and the router routes around it *)
  let drain =
    scenario ~quick ~texts ~label:"drain" ~shards:3 ~max_queue:16 ~threads:4
      ~per_thread:jobs ~iterations ~starts:1
      ~mid_action:
        (Some
           (fun fleet ->
             match fleet.workers with
             | w :: _ ->
               Printf.printf "  SIGTERM %s (pid %d)\n%!" w.name w.pid;
               (try Unix.kill w.pid Sys.sigterm with Unix.Unix_error _ -> ())
             | [] -> ()))
      ()
  in
  (* 4: violent loss under network faults — seeded fault injection on
     every worker response path, then SIGKILL a shard mid-run; orphans
     must fail over and resume from the replicated store *)
  let shard_kill =
    scenario ~quick ~texts ~label:"shard_kill" ~shards:3 ~max_queue:16 ~store:true
      ~fault:"seed=7,drop=0.02,delay=0.05:0.005,truncate=0.01,corrupt=0.01" ~threads:4
      ~per_thread:jobs ~iterations:(iterations * 4) ~starts:4
      ~mid_action:
        (Some
           (fun fleet ->
             match fleet.workers with
             | _ :: w :: _ ->
               Printf.printf "  SIGKILL %s (pid %d)\n%!" w.name w.pid;
               (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
             | _ -> ()))
      ()
  in
  (* 5: ECO delta storm — sticky sessions streamed through the router
     with a cache-corruption fault armed on every shard, plus a SIGKILL
     of one shard mid-stream; every answer must come back certified
     and the armed fault must be visible in the fleet's integrity
     counters *)
  let eco = eco_storm ~quick ~texts ~n:(if quick then 20 else 28) () in
  let results = [ steady; overload; drain; shard_kill; eco ] in
  let summary =
    List.concat_map
      (fun r ->
        let p99 = percentile r.outcome.latencies 0.99 in
        [
          ( r.label ^ "_jobs_per_sec",
            Json.Float (float_of_int r.outcome.completed /. r.outcome.wall) );
          (r.label ^ "_p99_s", Json.Float p99);
        ])
      results
  in
  let merged_fields =
    match merge with
    | None -> []
    | Some path -> (
      match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok j -> (
        match (Json.member "server" j, Json.member "quick" j) with
        | Some server, _ -> [ ("server", server) ]
        | None, _ -> [])
      | Error e -> die "%s: %s" path e
      | exception Sys_error e -> die "%s" e)
  in
  let doc =
    Json.Obj
      ([ ("schema", Json.String "qbpart-bench-server/2"); ("quick", Json.Bool quick) ]
      @ merged_fields
      @ [ ("chaos", Json.List (List.map row results)); ("server_summary", Json.Obj summary) ])
  in
  Out_channel.with_open_bin out (fun oc -> output_string oc (Json.to_string doc ^ "\n"));
  Printf.printf "\nwrote %s\n%!" out;
  let ok =
    List.for_all
      (fun r -> r.outcome.errors = [] && r.outcome.completed = r.outcome.offered)
      results
  in
  if not ok then begin
    prerr_endline "chaos: at least one scenario lost or failed jobs";
    exit 1
  end
