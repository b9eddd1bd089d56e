(* qbpartd — the partitioning daemon and fleet router.

   Default mode listens on a Unix-domain socket (and optionally TCP),
   speaks the length-prefixed NDJSON protocol of doc/PROTOCOL.md, and
   multiplexes solve jobs over a bounded two-lane priority queue and a
   pool of worker domains.  SIGINT/SIGTERM (or a `drain` request)
   triggers graceful drain: stop accepting, cancel queued jobs, let
   in-flight jobs return their certified best-so-far under cancelled
   deadlines, persist a resumable checkpoint for each interrupted job,
   emit a final metrics snapshot, exit 0.

   `--route` mode runs no solver at all: it consistent-hashes each
   submission across the `--shard` workers by instance hash, health-
   checks them with heartbeats, and fails jobs over to the ring
   successor when a shard dies — bit-identical resumes when the fleet
   shares a `--replicate` checkpoint store.

   Exit codes:
     0    clean drain
     123  startup failure (socket in use, unbindable path, bad flag value)
     124  command-line parse error *)

module Server = Qbpart_server.Server
module Router = Qbpart_server.Router
module Client = Qbpart_server.Client
module Frame = Qbpart_server.Frame
module Protocol = Qbpart_server.Protocol
module Netfault = Qbpart_server.Netfault

open Cmdliner

(* Runtime failures reach [Cmd.eval_result] as [Error message]: it
   prints the message and exits 123, and cmdliner's own misuse errors
   (an unknown option or subcommand, a missing positional), which it
   reports as term errors, keep the default 124.  With
   [Term.term_result] the two shared one exit code. *)
let runtime_result t = Term.(const (Result.map_error (fun (`Msg m) -> m)) $ t)

let metrics_json (m : Protocol.metrics_view) =
  (* reuse the wire encoding: one line, machine-readable *)
  match Protocol.encode_response (Protocol.Metrics_snapshot m) with
  | s -> s

let parse_tcp = function
  | None -> Ok None
  | Some spec -> (
    match String.rindex_opt spec ':' with
    | None -> Error (`Msg (Printf.sprintf "--tcp %s: expected HOST:PORT" spec))
    | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Some (host, p))
      | _ -> Error (`Msg (Printf.sprintf "--tcp %s: expected HOST:PORT" spec))))

let parse_fault = function
  | None -> Ok None
  | Some spec -> (
    match Netfault.of_spec spec with
    | Ok config ->
      Ok (if Netfault.active config then Some (Netfault.create config) else None)
    | Error msg -> Error (`Msg (Printf.sprintf "--fault %s: %s" spec msg)))

let parse_shard spec =
  match String.index_opt spec '=' with
  | None -> Error (`Msg (Printf.sprintf "--shard %s: expected NAME=ADDR" spec))
  | Some i -> (
    let name = String.sub spec 0 i in
    let addr = String.sub spec (i + 1) (String.length spec - i - 1) in
    if name = "" then Error (`Msg (Printf.sprintf "--shard %s: empty name" spec))
    else
      match Client.addr_of_string addr with
      | Ok a -> Ok (name, a)
      | Error msg -> Error (`Msg (Printf.sprintf "--shard %s: %s" spec msg)))

let rec parse_shards = function
  | [] -> Ok []
  | spec :: rest ->
    Result.bind (parse_shard spec) (fun s ->
        Result.map (fun ss -> s :: ss) (parse_shards rest))

let parse_eco_fault = function
  | None -> Ok None
  | Some spec -> (
    match Qbpart_server.Session.Fault.of_spec spec with
    | Ok f when f = Qbpart_server.Session.Fault.none -> Ok None
    | Ok f -> Ok (Some f)
    | Error msg -> Error (`Msg (Printf.sprintf "--eco-fault %s: %s" spec msg)))

let run_worker socket tcp max_queue workers checkpoint_dir replicate max_frame
    shard_id conn_timeout fault eco_fault =
  let ( let* ) = Result.bind in
  let* () = if max_queue < 0 then Error (`Msg "--max-queue must be >= 0") else Ok () in
  let* () = if workers < 1 then Error (`Msg "--workers must be >= 1") else Ok () in
  let* () = if max_frame < 1024 then Error (`Msg "--max-frame must be >= 1024") else Ok () in
  let* () =
    if Sys.file_exists checkpoint_dir && Sys.is_directory checkpoint_dir then Ok ()
    else Error (`Msg (Printf.sprintf "--checkpoint-dir %s: not a directory" checkpoint_dir))
  in
  let* () =
    match replicate with
    | None -> Ok ()
    | Some dir when Sys.file_exists dir && Sys.is_directory dir -> Ok ()
    | Some dir -> Error (`Msg (Printf.sprintf "--replicate %s: not a directory" dir))
  in
  let config =
    {
      Server.socket_path = socket;
      tcp;
      max_queue;
      workers;
      checkpoint_dir;
      replicate_dir = replicate;
      max_frame;
      shard_id;
      conn_timeout;
      fault;
      eco_fault;
    }
  in
  match Server.create config with
  | Error msg -> Error (`Msg msg)
  | Ok server ->
    Qbpart_engine.Signals.on_terminate (fun _ -> Server.request_drain server);
    Format.eprintf "qbpartd[%s]: listening on %s%s (workers=%d, max-queue=%d)@." shard_id
      socket
      (match tcp with Some (h, p) -> Printf.sprintf " and tcp:%s:%d" h p | None -> "")
      workers max_queue;
    Server.serve server;
    Format.eprintf "qbpartd[%s]: drained %s@." shard_id (metrics_json (Server.snapshot server));
    Ok ()

let run_router socket tcp max_frame shard_id conn_timeout fault shards hb_interval
    fail_threshold =
  let ( let* ) = Result.bind in
  let* () = if max_frame < 1024 then Error (`Msg "--max-frame must be >= 1024") else Ok () in
  let* () = if hb_interval <= 0.0 then Error (`Msg "--hb-interval must be > 0") else Ok () in
  let* () =
    if fail_threshold < 1 then Error (`Msg "--fail-threshold must be >= 1") else Ok ()
  in
  let* shards = parse_shards shards in
  let* () = if shards = [] then Error (`Msg "--route needs at least one --shard") else Ok () in
  let config =
    {
      (Router.default_config ~socket_path:socket ~shards) with
      Router.tcp;
      max_frame;
      router_id = shard_id;
      conn_timeout;
      fault;
      hb_interval;
      fail_threshold;
    }
  in
  match Router.create config with
  | Error msg -> Error (`Msg msg)
  | Ok router ->
    Qbpart_engine.Signals.on_terminate (fun _ -> Router.request_drain router);
    Format.eprintf "qbpartd[%s]: routing on %s%s across %d shard%s@." shard_id socket
      (match tcp with Some (h, p) -> Printf.sprintf " and tcp:%s:%d" h p | None -> "")
      (List.length shards)
      (if List.length shards = 1 then "" else "s");
    Router.serve router;
    Format.eprintf "qbpartd[%s]: router drained@." shard_id;
    Ok ()

let run socket tcp_spec max_queue workers checkpoint_dir replicate max_frame
    shard_id conn_timeout fault_spec route shards hb_interval fail_threshold eco_fault_spec =
  let ( let* ) = Result.bind in
  let* tcp = parse_tcp tcp_spec in
  let* fault = parse_fault fault_spec in
  let* eco_fault = parse_eco_fault eco_fault_spec in
  let* () = if conn_timeout < 0.0 then Error (`Msg "--conn-timeout must be >= 0") else Ok () in
  if route then run_router socket tcp max_frame shard_id conn_timeout fault shards hb_interval fail_threshold
  else if shards <> [] then Error (`Msg "--shard only makes sense with --route")
  else
    run_worker socket tcp max_queue workers checkpoint_dir replicate max_frame
      shard_id conn_timeout fault eco_fault

let socket =
  Arg.(value & opt string "qbpartd.sock" & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain socket to listen on.  A stale socket file left by a dead \
               daemon is replaced; a live daemon on the same path is a startup error.")

let tcp =
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Also listen on TCP, for fleets spanning hosts.  Clients reach it with \
               $(b,tcp:HOST:PORT) addresses.")

let max_queue =
  Arg.(value & opt int 16 & info [ "max-queue" ] ~docv:"N"
         ~doc:"Bound on $(i,queued) (not yet running) jobs.  Batch submissions beyond \
               it are rejected with a structured $(b,overloaded) error; an interactive \
               submission sheds the newest queued batch job instead.")

let workers =
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
         ~doc:"Worker domains solving jobs concurrently.  Each job may itself run a \
               multi-start portfolio over further domains ($(b,starts) in the submit \
               request).")

let checkpoint_dir =
  Arg.(value & opt string "." & info [ "checkpoint-dir" ] ~docv:"DIR"
         ~doc:"Where interrupted jobs leave their resumable checkpoint \
               ($(b,qbpartd-<job>.ckpt)), written on drain and on cancellation; resume \
               with $(b,qbpart solve --resume).")

let replicate =
  Arg.(value & opt (some string) None & info [ "replicate" ] ~docv:"DIR"
         ~doc:"Shared replicated checkpoint store: every engine checkpoint is mirrored \
               to $(b,DIR/qbpartd-<instance hash>.ckpt) as it is emitted, and a \
               submission matching a stored instance (same hash, base seed, start \
               budget) auto-resumes from it.  Point every shard of a fleet at the same \
               directory to get failover with bit-identical certified answers.")

let max_frame =
  Arg.(value & opt int Frame.default_max & info [ "max-frame" ] ~docv:"BYTES"
         ~doc:"Request-frame size limit; larger frames are rejected with a structured \
               $(b,oversized) error and the connection is closed.")

let shard_id =
  Arg.(value & opt string "qbpartd" & info [ "shard-id" ] ~docv:"NAME"
         ~doc:"This process's name in heartbeat replies; give each fleet member a \
               distinct one.")

let conn_timeout =
  Arg.(value & opt float 60.0 & info [ "conn-timeout" ] ~docv:"SECONDS"
         ~doc:"Per-connection read/write deadline: a peer silent for this long is \
               disconnected.  0 disables the deadline.")

let fault =
  Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC"
         ~doc:"Deterministic network-fault injection on response frames, for chaos \
               testing: $(b,seed=7,drop=0.05,delay=0.1:0.02,truncate=0.01,corrupt=0.02) \
               (probabilities per frame; at most one fault each).")

let route =
  Arg.(value & flag & info [ "route" ]
         ~doc:"Run as a fleet router instead of a worker: forward each submission to a \
               $(b,--shard) chosen by consistent-hashing its instance hash, heartbeat \
               the shards, and fail jobs over to the ring successor when one dies.")

let shards =
  Arg.(value & opt_all string [] & info [ "shard" ] ~docv:"NAME=ADDR"
         ~doc:"A worker shard for $(b,--route) mode (repeatable).  $(i,ADDR) is a Unix \
               socket path or $(b,tcp:HOST:PORT).")

let hb_interval =
  Arg.(value & opt float 0.5 & info [ "hb-interval" ] ~docv:"SECONDS"
         ~doc:"Router health-sweep period.")

let fail_threshold =
  Arg.(value & opt int 2 & info [ "fail-threshold" ] ~docv:"N"
         ~doc:"Consecutive missed heartbeats before the router declares a shard dead \
               and fails its jobs over.")

let eco_fault =
  Arg.(value & opt (some string) None & info [ "eco-fault" ] ~docv:"SPEC"
         ~doc:"Deterministic fault injection on the ECO session path, for chaos \
               testing: $(b,corrupt=1,stale=5) fires each point on the k-th eco \
               request (corrupt the cached incumbent, bump the session sequence).  A \
               corrupted incumbent must be caught by the integrity re-check and demoted \
               to a certified cold solve; a bumped sequence must be refused as stale.")

let () =
  let doc = "partitioning service: a job queue over the qbpart solver engine" in
  let man =
    [
      `S Manpage.s_description;
      `P "Runs the crash-safe qbpart solver stack as a long-lived daemon: submissions \
          arrive over a Unix-domain socket or TCP (see $(b,qbpart submit)), wait in a \
          bounded two-lane priority queue, and are solved on a pool of worker domains.  \
          Every completed response carries an independently audited (certified) cost.";
      `P "With $(b,--route), the process is a protocol-transparent fleet router: jobs \
          are consistent-hashed across $(b,--shard) workers, dead shards are detected \
          by heartbeat and their jobs resubmitted to the ring successor, and a shared \
          $(b,--replicate) store makes the failed-over answers bit-identical to an \
          uninterrupted run.";
      `P "SIGINT/SIGTERM drain gracefully: accepting stops, queued jobs are cancelled, \
          running jobs return their certified best-so-far promptly via cooperative \
          deadline cancellation, interrupted jobs persist resumable checkpoints, and \
          the process exits 0 after a final metrics line on stderr.";
      `S Manpage.s_exit_status;
      `P "0 after a graceful drain; 123 on startup failure (socket in use, bad flag \
          value); 124 on command-line parse errors.";
    ]
  in
  let info = Cmd.info "qbpartd" ~version:"1.0.0" ~doc ~man in
  exit
    (Cmd.eval_result
       (Cmd.v info
          Term.(
            runtime_result
              (const run $ socket $ tcp $ max_queue $ workers $ checkpoint_dir $ replicate
             $ max_frame $ shard_id $ conn_timeout $ fault $ route $ shards $ hb_interval
             $ fail_threshold $ eco_fault))))
