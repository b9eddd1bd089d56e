
type config = {
  socket_path : string;
  tcp : (string * int) option;
  max_queue : int;
  workers : int;
  checkpoint_dir : string;
  replicate_dir : string option;
  max_frame : int;
  shard_id : string;
  conn_timeout : float;
  fault : Netfault.t option;
  eco_fault : Session.Fault.t option;
}

let default_config ~socket_path =
  {
    socket_path;
    tcp = None;
    max_queue = 16;
    workers = 2;
    checkpoint_dir = ".";
    replicate_dir = None;
    max_frame = Frame.default_max;
    shard_id = "qbpartd";
    conn_timeout = 60.0;
    fault = None;
    eco_fault = None;
  }

type t = {
  config : config;
  listen_fds : Unix.file_descr list;
  sched : Scheduler.t;
  sessions : Session.t;
  metrics : Metrics.t;
  started_at : float;
  drain_requested : bool Atomic.t;
  drained : bool Atomic.t;
}

let scheduler t = t.sched
let request_drain t = Atomic.set t.drain_requested true
let draining t = Atomic.get t.drain_requested

let snapshot t = Scheduler.snapshot t.sched

let heartbeat t =
  {
    Protocol.shard = t.config.shard_id;
    uptime = Unix.gettimeofday () -. t.started_at;
    hb_queue_depth = Scheduler.queue_depth t.sched;
    hb_running = Scheduler.running t.sched;
    hb_draining = Atomic.get t.drain_requested || Scheduler.draining t.sched;
  }

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let create config =
  ignore_sigpipe ();
  match Listener.unix ~path:config.socket_path with
  | Error _ as e -> e
  | Ok unix_fd -> (
    let tcp_ready =
      match config.tcp with
      | None -> Ok []
      | Some hp -> Result.map (fun fd -> [ fd ]) (Listener.tcp hp)
    in
    match tcp_ready with
    | Error e ->
      (try Unix.close unix_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink config.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
      Error e
    | Ok tcp_fds ->
      let metrics = Metrics.create () in
      let sched =
        Scheduler.create ~workers:config.workers ~checkpoint_dir:config.checkpoint_dir
          ?replicate_dir:config.replicate_dir ~queue_capacity:config.max_queue ~metrics ()
      in
      let sessions =
        Session.create
          {
            Session.checkpoint_dir =
              Option.value ~default:config.checkpoint_dir config.replicate_dir;
            fault = config.eco_fault;
          }
          ~metrics
      in
      Ok
        {
          config;
          listen_fds = unix_fd :: tcp_fds;
          sched;
          sessions;
          metrics;
          started_at = Unix.gettimeofday ();
          drain_requested = Atomic.make false;
          drained = Atomic.make false;
        })

(* --- per-connection protocol loop ---------------------------------- *)

let send = Conn.send

let handle_events t ?fault oc id ~since =
  match Scheduler.view t.sched id with
  | None ->
    send ?fault oc
      (Protocol.Error { code = Protocol.Not_found; message = Printf.sprintf "no such job %S" id })
  | Some first ->
    (* Event seq is the job's absolute state ordinal (0 queued,
       1 running, 2 terminal), so a reconnecting watcher can pass the
       last seq it saw as [since] and never re-receive it. *)
    let rec stream last (v : Protocol.job_view) =
      let o = Protocol.state_ordinal v.Protocol.state in
      let last =
        if o > last then begin
          send ?fault oc
            (Protocol.Event { job = id; seq = o; state = v.Protocol.state; detail = v.Protocol.winner });
          o
        end
        else last
      in
      match v.Protocol.state with
      | Protocol.Done | Protocol.Failed | Protocol.Cancelled -> send ?fault oc (Protocol.Job v)
      | Protocol.Queued | Protocol.Running -> (
        match Scheduler.await t.sched id ~after:o with
        | None -> send ?fault oc (Protocol.Job v) (* job table never shrinks; defensive *)
        | Some v' -> stream last v')
    in
    stream (since - 1) first

let answer t ?fault oc = function
  | Protocol.Submit spec -> (
    match Scheduler.submit t.sched spec with
    | Ok (job, queue_depth) -> send ?fault oc (Protocol.Submitted { job; queue_depth })
    | Error (code, message) -> send ?fault oc (Protocol.Error { code; message }))
  | Protocol.Status id -> (
    match Scheduler.view t.sched id with
    | Some v -> send ?fault oc (Protocol.Job v)
    | None ->
      send ?fault oc
        (Protocol.Error { code = Protocol.Not_found; message = Printf.sprintf "no such job %S" id }))
  | Protocol.Cancel id -> (
    match Scheduler.cancel t.sched id with
    | Some v -> send ?fault oc (Protocol.Job v)
    | None ->
      send ?fault oc
        (Protocol.Error { code = Protocol.Not_found; message = Printf.sprintf "no such job %S" id }))
  | Protocol.Events { job; since } -> handle_events t ?fault oc job ~since
  | Protocol.Metrics -> send ?fault oc (Protocol.Metrics_snapshot (snapshot t))
  | Protocol.Heartbeat -> send ?fault oc (Protocol.Heartbeat_ack (heartbeat t))
  | Protocol.Drain ->
    send ?fault oc Protocol.Drain_ack;
    request_drain t
  | Protocol.Session_open spec ->
    if draining t then
      send ?fault oc
        (Protocol.Error { code = Protocol.Draining; message = "daemon is draining" })
    else (
      match Session.open_session t.sessions spec with
      | Ok v -> send ?fault oc (Protocol.Eco_result v)
      | Error (code, message) -> send ?fault oc (Protocol.Error { code; message }))
  | Protocol.Eco_submit { session; seq; delta; force_cold } ->
    if draining t then
      send ?fault oc
        (Protocol.Error { code = Protocol.Draining; message = "daemon is draining" })
    else (
      match Session.eco t.sessions ~session ~seq ~delta ~force_cold with
      | Ok v -> send ?fault oc (Protocol.Eco_result v)
      | Error (code, message) -> send ?fault oc (Protocol.Error { code; message }))
  | Protocol.Session_close sid -> (
    (* allowed while draining: closing persists the incumbent *)
    match Session.close_session t.sessions sid with
    | Ok resp -> send ?fault oc resp
    | Error (code, message) -> send ?fault oc (Protocol.Error { code; message }))

let handle_connection t fd =
  let fault = t.config.fault in
  Conn.run ~max_frame:t.config.max_frame ~conn_timeout:t.config.conn_timeout ?fault
    ~answer:(fun oc request -> answer t ?fault oc request)
    fd

(* --- listener ------------------------------------------------------ *)

let serve t =
  Listener.accept_loop ~fds:t.listen_fds
    ~stop:(fun () -> Atomic.get t.drain_requested)
    ~handle:(handle_connection t);
  if not (Atomic.exchange t.drained true) then begin
    Listener.close_all t.listen_fds;
    (try Unix.unlink t.config.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
    Session.drain t.sessions;
    Scheduler.drain t.sched
  end
