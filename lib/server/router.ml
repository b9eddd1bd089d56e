module Checkpoint = Qbpart_engine.Checkpoint

(* --- configuration -------------------------------------------------- *)

type config = {
  socket_path : string;
  tcp : (string * int) option;
  shards : (string * Client.addr) list;
  max_frame : int;
  router_id : string;
  conn_timeout : float;
  fault : Netfault.t option;
  hb_interval : float;
  fail_threshold : int;
  vnodes : int;
  forward_connect_timeout : float;
  forward_read_timeout : float;
}

let default_config ~socket_path ~shards =
  {
    socket_path;
    tcp = None;
    shards;
    max_frame = Frame.default_max;
    router_id = "qbpart-router";
    conn_timeout = 60.0;
    fault = None;
    hb_interval = 0.5;
    fail_threshold = 2;
    vnodes = 64;
    forward_connect_timeout = 2.0;
    forward_read_timeout = 10.0;
  }

(* --- state ----------------------------------------------------------- *)

type shard = {
  name : string;
  saddr : Client.addr;
  mutable alive : bool;
  mutable shard_draining : bool;
  mutable fails : int;  (* consecutive heartbeat/forward failures *)
}

type entry = {
  rid : string;               (* router-side job id, [r<n>] *)
  spec : Protocol.submit;
  hash : int64;               (* {!Checkpoint.instance_hash} — the routing key *)
  mutable shard : string option;  (* owning shard; [None] while orphaned *)
  mutable sjob : string option;   (* job id on the owning shard *)
  mutable failovers : int;        (* times this job was re-placed *)
  mutable final : Protocol.job_view option;  (* cached terminal view *)
}

(* A sticky session: ECO deltas patch shard-local solver state, so a
   session lives and dies on the shard that opened it.  The router
   hands out its own ids ([rs<n>]) and rewrites the shard's id both
   ways; a dead owner invalidates the session (the client re-opens and
   the replicated checkpoint store warms the replacement). *)
type sess = { rsid : string; s_shard : string; s_sid : string }

type t = {
  config : config;
  listen_fds : Unix.file_descr list;
  shards : shard array;
  ring : (int64 * int) array;  (* (point, shard index), sorted by point *)
  entries : (string, entry) Hashtbl.t;
  sessions : (string, sess) Hashtbl.t;
  mutable sseq : int;
  mutable seq : int;
  mu : Mutex.t;
  place_mu : Mutex.t;  (* serialises placement so an orphan is re-placed once *)
  started_at : float;
  drain_requested : bool Atomic.t;
  drained : bool Atomic.t;
}

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* --- consistent-hash ring ------------------------------------------- *)

(* Same FNV-1a the checkpoint instance hash uses, applied to
   ["name#vnode"] strings: shard membership changes move only the
   affected arc of keys, so a restarted fleet routes jobs exactly as
   before and a replacement shard finds its predecessor's checkpoints
   in the shared store. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let build_ring ~vnodes shards =
  let points =
    Array.to_list shards
    |> List.mapi (fun si (s : shard) ->
           List.init vnodes (fun v -> (fnv1a64 (Printf.sprintf "%s#%d" s.name v), si)))
    |> List.concat
  in
  let ring = Array.of_list points in
  Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) ring;
  ring

let ring_successor ring hash =
  (* first point ≥ hash (unsigned), wrapping to 0 *)
  let n = Array.length ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst ring.(mid)) hash < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

(* Walk the ring clockwise from [hash]; first live, accepting shard not
   in [excluding].  Call under [mu]. *)
let pick_shard t ~hash ~excluding =
  let n = Array.length t.ring in
  let start = ring_successor t.ring hash in
  let chosen = ref None in
  let i = ref 0 in
  while !chosen = None && !i < n do
    let _, si = t.ring.((start + !i) mod n) in
    let s = t.shards.(si) in
    if s.alive && (not s.shard_draining) && not (List.mem s.name excluding) then chosen := Some s;
    incr i
  done;
  !chosen

let shard_named t name = Array.to_seq t.shards |> Seq.find (fun s -> s.name = name)

(* --- forwarding ------------------------------------------------------ *)

let forward t saddr req =
  match
    Client.connect ~connect_timeout:t.config.forward_connect_timeout
      ~read_timeout:t.config.forward_read_timeout saddr
  with
  | Error _ as e -> e
  | Ok c ->
    let r = Client.call c req in
    Client.close c;
    r

(* Declare a shard dead and orphan its in-flight jobs; the next
   placement pass resubmits each spec to the ring successor, where the
   replicated checkpoint store turns the resubmission into a
   bit-identical resume.  Call under [mu]. *)
let mark_dead t s =
  if s.alive then begin
    s.alive <- false;
    Hashtbl.iter
      (fun _ e ->
        if e.final = None && e.shard = Some s.name then begin
          e.shard <- None;
          e.sjob <- None;
          e.failovers <- e.failovers + 1
        end)
      t.entries
  end

let note_forward_failure t s =
  locked t.mu (fun () ->
      s.fails <- s.fails + 1;
      if s.fails >= t.config.fail_threshold then mark_dead t s)

(* Place (or re-place) one entry.  Caller holds [place_mu]; the state
   mutex is only taken for reads/updates, never across the network. *)
let rec place t e ~excluding =
  match locked t.mu (fun () -> pick_shard t ~hash:e.hash ~excluding) with
  | None ->
    Error (Protocol.Unavailable, Printf.sprintf "no live shard can accept job %s" e.rid)
  | Some s -> (
    match forward t s.saddr (Protocol.Submit e.spec) with
    | Ok (Protocol.Submitted { job; queue_depth }) ->
      locked t.mu (fun () ->
          e.shard <- Some s.name;
          e.sjob <- Some job);
      Ok queue_depth
    | Ok (Protocol.Error { code = Protocol.Overloaded | Protocol.Draining | Protocol.Unavailable; _ })
      ->
      (* spill over: the ring successor absorbs a full or draining shard *)
      place t e ~excluding:(s.name :: excluding)
    | Ok (Protocol.Error { code; message }) -> Error (code, message)
    | Ok other ->
      Error
        ( Protocol.Internal,
          Format.asprintf "unexpected reply from shard %s: %a" s.name Protocol.pp_response other )
    | Error _transport ->
      note_forward_failure t s;
      place t e ~excluding:(s.name :: excluding))

let place_orphans t =
  let orphans =
    locked t.mu (fun () ->
        Hashtbl.fold
          (fun _ e acc -> if e.final = None && e.sjob = None then e :: acc else acc)
          t.entries [])
  in
  List.iter
    (fun e ->
      locked t.place_mu (fun () ->
          if locked t.mu (fun () -> e.final = None && e.sjob = None) then
            ignore (place t e ~excluding:[])))
    orphans

(* --- request handling ------------------------------------------------ *)

let submit t spec =
  match Scheduler.problem_of_spec spec with
  | Error _ as e -> e
  | Ok problem ->
    let hash = Checkpoint.instance_hash problem in
    let e =
      locked t.mu (fun () ->
          t.seq <- t.seq + 1;
          let rid = Printf.sprintf "r%d" t.seq in
          let e =
            { rid; spec; hash; shard = None; sjob = None; failovers = 0; final = None }
          in
          Hashtbl.replace t.entries rid e;
          e)
    in
    locked t.place_mu (fun () ->
        match place t e ~excluding:[] with
        | Ok depth -> Ok (e.rid, depth)
        | Error _ as err ->
          locked t.mu (fun () -> Hashtbl.remove t.entries e.rid);
          err)

let terminal = function
  | Protocol.Done | Protocol.Failed | Protocol.Cancelled -> true
  | Protocol.Queued | Protocol.Running -> false

let synth_view e state =
  {
    Protocol.id = e.rid;
    state;
    label = e.spec.Protocol.label;
    queued_seconds = 0.0;
    wall_seconds = 0.0;
    cost = None;
    certified = None;
    interrupted = false;
    winner = None;
    stages = [];
    error = None;
    checkpoint = None;
    assignment = None;
    resumed_from = None;
  }

(* The fleet-wide view of a job: the owning shard's view under the
   router id, a cached terminal view once one was seen, or a
   synthesised [Queued] while the job is orphaned between shards. *)
let current_view t e =
  match locked t.mu (fun () -> e.final) with
  | Some v -> v
  | None -> (
    let owner =
      locked t.mu (fun () ->
          match (e.shard, e.sjob) with
          | Some name, Some sjob ->
            Option.map (fun s -> (s, sjob)) (shard_named t name)
          | _ -> None)
    in
    match owner with
    | None -> synth_view e Protocol.Queued
    | Some (s, sjob) -> (
      match forward t s.saddr (Protocol.Status sjob) with
      | Ok (Protocol.Job v) ->
        let v = { v with Protocol.id = e.rid } in
        locked t.mu (fun () -> if terminal v.Protocol.state then e.final <- Some v);
        v
      | Ok (Protocol.Error { code = Protocol.Not_found; _ }) ->
        (* the shard restarted without its job table: orphan and re-place *)
        locked t.mu (fun () ->
            if e.final = None && e.shard = Some s.name then begin
              e.shard <- None;
              e.sjob <- None;
              e.failovers <- e.failovers + 1
            end);
        synth_view e Protocol.Queued
      | Ok _ -> synth_view e Protocol.Queued
      | Error _transport ->
        note_forward_failure t s;
        synth_view e Protocol.Queued))

let cancel t e =
  match locked t.mu (fun () -> e.final) with
  | Some v -> Ok v
  | None -> (
    let owner =
      locked t.mu (fun () ->
          match (e.shard, e.sjob) with
          | Some name, Some sjob -> Option.map (fun s -> (s, sjob)) (shard_named t name)
          | _ -> None)
    in
    match owner with
    | None ->
      (* orphaned: nothing is running anywhere; settle it locally *)
      let v =
        { (synth_view e Protocol.Cancelled) with
          Protocol.error = Some "cancelled while awaiting placement"
        }
      in
      locked t.mu (fun () -> e.final <- Some v);
      Ok v
    | Some (s, sjob) -> (
      match forward t s.saddr (Protocol.Cancel sjob) with
      | Ok (Protocol.Job v) ->
        let v = { v with Protocol.id = e.rid } in
        locked t.mu (fun () -> if terminal v.Protocol.state then e.final <- Some v);
        Ok v
      | Ok (Protocol.Error { code; message }) -> Error (code, message)
      | Ok other ->
        Error
          ( Protocol.Internal,
            Format.asprintf "unexpected reply from shard %s: %a" s.name Protocol.pp_response
              other )
      | Error msg ->
        note_forward_failure t s;
        Error (Protocol.Unavailable, msg)))

let live_shards t =
  locked t.mu (fun () -> Array.to_list t.shards |> List.filter (fun s -> s.alive))

let heartbeat t =
  let in_flight =
    locked t.mu (fun () ->
        Hashtbl.fold (fun _ e n -> if e.final = None then n + 1 else n) t.entries 0)
  in
  {
    Protocol.shard = t.config.router_id;
    uptime = Unix.gettimeofday () -. t.started_at;
    hb_queue_depth = in_flight;
    (* for a router, [running] reports fleet health: live shards *)
    hb_running = List.length (live_shards t);
    hb_draining = Atomic.get t.drain_requested;
  }

let zero_metrics uptime draining =
  {
    Protocol.accepted = 0;
    rejected = 0;
    completed = 0;
    failed = 0;
    cancelled = 0;
    queue_depth = 0;
    running = 0;
    draining;
    p50_wall = 0.0;
    p99_wall = 0.0;
    max_wall = 0.0;
    uptime_seconds = uptime;
    fallbacks = [];
    shed = 0;
    eco_warm_hits = 0;
    eco_cold_fallbacks = 0;
    cache_evictions = 0;
    integrity_failures = 0;
  }

let merge_fallbacks a b =
  List.fold_left
    (fun acc (k, n) ->
      match List.assoc_opt k acc with
      | Some m -> (k, m + n) :: List.remove_assoc k acc
      | None -> (k, n) :: acc)
    a b
  |> List.sort compare

(* Aggregate fleet metrics: counters sum, gauges sum, wall-time
   percentiles take the pessimistic (max) shard — good enough for a
   health dashboard without shipping every sample across the wire. *)
let metrics t =
  let uptime = Unix.gettimeofday () -. t.started_at in
  let draining = Atomic.get t.drain_requested in
  List.fold_left
    (fun acc (s : shard) ->
      match forward t s.saddr Protocol.Metrics with
      | Ok (Protocol.Metrics_snapshot m) ->
        {
          Protocol.accepted = acc.Protocol.accepted + m.Protocol.accepted;
          rejected = acc.Protocol.rejected + m.Protocol.rejected;
          completed = acc.Protocol.completed + m.Protocol.completed;
          failed = acc.Protocol.failed + m.Protocol.failed;
          cancelled = acc.Protocol.cancelled + m.Protocol.cancelled;
          queue_depth = acc.Protocol.queue_depth + m.Protocol.queue_depth;
          running = acc.Protocol.running + m.Protocol.running;
          draining = acc.Protocol.draining || m.Protocol.draining;
          p50_wall = Float.max acc.Protocol.p50_wall m.Protocol.p50_wall;
          p99_wall = Float.max acc.Protocol.p99_wall m.Protocol.p99_wall;
          max_wall = Float.max acc.Protocol.max_wall m.Protocol.max_wall;
          uptime_seconds = uptime;
          fallbacks = merge_fallbacks acc.Protocol.fallbacks m.Protocol.fallbacks;
          shed = acc.Protocol.shed + m.Protocol.shed;
          eco_warm_hits = acc.Protocol.eco_warm_hits + m.Protocol.eco_warm_hits;
          eco_cold_fallbacks = acc.Protocol.eco_cold_fallbacks + m.Protocol.eco_cold_fallbacks;
          cache_evictions = acc.Protocol.cache_evictions + m.Protocol.cache_evictions;
          integrity_failures = acc.Protocol.integrity_failures + m.Protocol.integrity_failures;
        }
      | Ok _ | Error _ -> acc)
    (zero_metrics uptime draining)
    (live_shards t)

(* --- sticky ECO sessions --------------------------------------------- *)

let open_session t spec =
  match Scheduler.problem_of_spec spec with
  | Error (code, message) -> Error (code, message)
  | Ok problem ->
    let hash = Checkpoint.instance_hash problem in
    let rec go excluding =
      match locked t.mu (fun () -> pick_shard t ~hash ~excluding) with
      | None -> Error (Protocol.Unavailable, "no live shard can open a session")
      | Some s -> (
        match forward t s.saddr (Protocol.Session_open spec) with
        | Ok (Protocol.Eco_result v) ->
          let rsid =
            locked t.mu (fun () ->
                t.sseq <- t.sseq + 1;
                let rsid = Printf.sprintf "rs%d" t.sseq in
                Hashtbl.replace t.sessions rsid
                  { rsid; s_shard = s.name; s_sid = v.Protocol.eco_session };
                rsid)
          in
          Ok { v with Protocol.eco_session = rsid }
        | Ok
            (Protocol.Error
              { code = Protocol.Overloaded | Protocol.Draining | Protocol.Unavailable; _ }) ->
          go (s.name :: excluding)
        | Ok (Protocol.Error { code; message }) -> Error (code, message)
        | Ok other ->
          Error
            ( Protocol.Internal,
              Format.asprintf "unexpected reply from shard %s: %a" s.name Protocol.pp_response
                other )
        | Error _transport ->
          note_forward_failure t s;
          go (s.name :: excluding))
    in
    go []

(* Forward one request to a session's owning shard.  Sessions are not
   failover-transparent (the warm state died with the shard), so a
   dead or unreachable owner invalidates the mapping and the client
   must re-open. *)
let session_forward t rsid make_req =
  match locked t.mu (fun () -> Hashtbl.find_opt t.sessions rsid) with
  | None -> Error (Protocol.Unknown_session, Printf.sprintf "no such session %S" rsid)
  | Some se -> (
    let owner =
      locked t.mu (fun () ->
          match shard_named t se.s_shard with
          | Some s when s.alive -> Some s
          | _ -> None)
    in
    match owner with
    | None ->
      locked t.mu (fun () -> Hashtbl.remove t.sessions rsid);
      Error
        ( Protocol.Unavailable,
          Printf.sprintf "session %s lost: shard %s is down; re-open the session" rsid
            se.s_shard )
    | Some s -> (
      match forward t s.saddr (make_req se.s_sid) with
      | Ok (Protocol.Eco_result v) -> Ok (Protocol.Eco_result { v with Protocol.eco_session = rsid })
      | Ok (Protocol.Session_closed { session = _; checkpoint }) ->
        locked t.mu (fun () -> Hashtbl.remove t.sessions rsid);
        Ok (Protocol.Session_closed { session = rsid; checkpoint })
      | Ok (Protocol.Error { code; message }) -> Error (code, message)
      | Ok other ->
        Error
          ( Protocol.Internal,
            Format.asprintf "unexpected reply from shard %s: %a" s.name Protocol.pp_response
              other )
      | Error _transport ->
        note_forward_failure t s;
        locked t.mu (fun () -> Hashtbl.remove t.sessions rsid);
        Error
          ( Protocol.Unavailable,
            Printf.sprintf "session %s lost: shard %s is unreachable; re-open the session" rsid
              se.s_shard )))

let request_drain t = Atomic.set t.drain_requested true

let broadcast_drain t =
  Array.iter (fun (s : shard) -> ignore (forward t s.saddr Protocol.Drain)) t.shards

(* --- health / failover loop ------------------------------------------ *)

let health_tick t =
  Array.iter
    (fun s ->
      match forward t s.saddr Protocol.Heartbeat with
      | Ok (Protocol.Heartbeat_ack hb) ->
        locked t.mu (fun () ->
            s.fails <- 0;
            s.alive <- true;
            s.shard_draining <- hb.Protocol.hb_draining)
      | Ok _ | Error _ ->
        locked t.mu (fun () ->
            s.fails <- s.fails + 1;
            if s.fails >= t.config.fail_threshold then mark_dead t s))
    t.shards;
  place_orphans t

let health_loop t =
  while not (Atomic.get t.drain_requested) do
    health_tick t;
    Thread.delay t.config.hb_interval
  done

(* --- wire loop ------------------------------------------------------- *)

let find t id = locked t.mu (fun () -> Hashtbl.find_opt t.entries id)

let not_found ?fault oc id =
  Conn.send ?fault oc
    (Protocol.Error { code = Protocol.Not_found; message = Printf.sprintf "no such job %S" id })

let handle_events t ?fault oc id ~since =
  match find t id with
  | None -> not_found ?fault oc id
  | Some e ->
    (* Synthesised from polled views, so the stream survives a shard
       failover transparently: same seq-as-state-ordinal contract as a
       single daemon. *)
    let rec stream last =
      let v = current_view t e in
      let o = Protocol.state_ordinal v.Protocol.state in
      let last =
        if o > last then begin
          Conn.send ?fault oc
            (Protocol.Event
               { job = e.rid; seq = o; state = v.Protocol.state; detail = v.Protocol.winner });
          o
        end
        else last
      in
      if terminal v.Protocol.state then Conn.send ?fault oc (Protocol.Job v)
      else begin
        Thread.delay 0.1;
        stream last
      end
    in
    stream (since - 1)

let answer t ?fault oc = function
  | Protocol.Submit spec -> (
    match submit t spec with
    | Ok (job, queue_depth) -> Conn.send ?fault oc (Protocol.Submitted { job; queue_depth })
    | Error (code, message) -> Conn.send ?fault oc (Protocol.Error { code; message }))
  | Protocol.Status id -> (
    match find t id with
    | None -> not_found ?fault oc id
    | Some e -> Conn.send ?fault oc (Protocol.Job (current_view t e)))
  | Protocol.Cancel id -> (
    match find t id with
    | None -> not_found ?fault oc id
    | Some e -> (
      match cancel t e with
      | Ok v -> Conn.send ?fault oc (Protocol.Job v)
      | Error (code, message) -> Conn.send ?fault oc (Protocol.Error { code; message })))
  | Protocol.Events { job; since } -> handle_events t ?fault oc job ~since
  | Protocol.Metrics -> Conn.send ?fault oc (Protocol.Metrics_snapshot (metrics t))
  | Protocol.Heartbeat -> Conn.send ?fault oc (Protocol.Heartbeat_ack (heartbeat t))
  | Protocol.Drain ->
    broadcast_drain t;
    Conn.send ?fault oc Protocol.Drain_ack;
    request_drain t
  | Protocol.Session_open spec -> (
    match open_session t spec with
    | Ok v -> Conn.send ?fault oc (Protocol.Eco_result v)
    | Error (code, message) -> Conn.send ?fault oc (Protocol.Error { code; message }))
  | Protocol.Eco_submit { session; seq; delta; force_cold } -> (
    match
      session_forward t session (fun sid ->
          Protocol.Eco_submit { session = sid; seq; delta; force_cold })
    with
    | Ok resp -> Conn.send ?fault oc resp
    | Error (code, message) -> Conn.send ?fault oc (Protocol.Error { code; message }))
  | Protocol.Session_close session -> (
    match session_forward t session (fun sid -> Protocol.Session_close sid) with
    | Ok resp -> Conn.send ?fault oc resp
    | Error (code, message) -> Conn.send ?fault oc (Protocol.Error { code; message }))

let handle_connection t fd =
  let fault = t.config.fault in
  Conn.run ~max_frame:t.config.max_frame ~conn_timeout:t.config.conn_timeout ?fault
    ~answer:(fun oc request -> answer t ?fault oc request)
    fd

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let create (config : config) =
  ignore_sigpipe ();
  if config.shards = [] then Error "a router needs at least one --shard"
  else
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
        let shards =
          Array.of_list
            (List.map
               (fun (name, saddr) ->
                 { name; saddr; alive = true; shard_draining = false; fails = 0 })
               config.shards)
        in
        Ok
          {
            config;
            listen_fds = unix_fd :: tcp_fds;
            shards;
            ring = build_ring ~vnodes:(max 1 config.vnodes) shards;
            entries = Hashtbl.create 64;
            sessions = Hashtbl.create 16;
            sseq = 0;
            seq = 0;
            mu = Mutex.create ();
            place_mu = Mutex.create ();
            started_at = Unix.gettimeofday ();
            drain_requested = Atomic.make false;
            drained = Atomic.make false;
          })

let serve t =
  let health = Thread.create health_loop t in
  Listener.accept_loop ~fds:t.listen_fds
    ~stop:(fun () -> Atomic.get t.drain_requested)
    ~handle:(handle_connection t);
  Thread.join health;
  if not (Atomic.exchange t.drained true) then begin
    Listener.close_all t.listen_fds;
    (try Unix.unlink t.config.socket_path with Unix.Unix_error _ | Sys_error _ -> ())
  end
