module Parser = Qbpart_netlist.Parser
module Netlist = Qbpart_netlist.Netlist
module Grid = Qbpart_topology.Grid
module Constraints_io = Qbpart_timing.Constraints_io
module Problem = Qbpart_core.Problem
module Certify = Qbpart_core.Certify
module Burkard = Qbpart_core.Burkard
module Deadline = Qbpart_engine.Deadline
module Engine = Qbpart_engine.Engine
module Checkpoint = Qbpart_engine.Checkpoint

(* What a job needs only until it ends: the submission (whose inline
   netlist and timing text can be large), the parsed instance and the
   store checkpoint it resumes from.  [finish] drops it, with the last
   engine checkpoint, at every terminal transition, so a finished job
   keeps only what its view reports. *)
type work = {
  spec : Protocol.submit;
  problem : Problem.t;
  resume : Checkpoint.t option;
}

type job = {
  id : string;
  label : string option;
  resumed_from : string option;  (* path of the store checkpoint resumed *)
  submitted_at : float;
  mutable work : work option;  (* None once the job is terminal *)
  mutable started_at : float option;
  mutable finished_at : float option;
  mutable state : Protocol.job_state;
  mutable deadline : Deadline.t option;
  mutable cancel_requested : bool;
  mutable cost : float option;
  mutable certified : bool option;
  mutable interrupted : bool;
  mutable winner : string option;
  mutable stages : string list;
  mutable error : string option;
  mutable last_checkpoint : Checkpoint.t option;
  mutable checkpoint_path : string option;
  mutable assignment : int array option;
}

type t = {
  mu : Mutex.t;
  changed : Condition.t;  (* broadcast, under [mu], at every state change *)
  queue : job Queue.t;
  jobs : (string, job) Hashtbl.t;
  metrics : Metrics.t;
  checkpoint_dir : string;
  replicate_dir : string option;
  mutable next_id : int;
  mutable running_count : int;
  mutable draining_flag : bool;
  mutable workers : unit Domain.t list;
  worker_count : int;
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* --- the spec ------------------------------------------------------ *)

let check_spec (spec : Protocol.submit) =
  let bad msg = Error (Protocol.Bad_request, msg) in
  if spec.rows < 1 || spec.cols < 1 then bad "rows and cols must be >= 1"
  else if spec.iterations < 0 then bad "iterations must be >= 0"
  else if spec.starts < 1 then bad "starts must be >= 1"
  else if (not (Float.is_finite spec.slack)) || spec.slack <= 0.0 then
    bad "slack must be a positive finite number"
  else if spec.generations < 1 then bad "generations must be >= 1"
  else if spec.pool_size < 1 then bad "pool_size must be >= 1"
  else
    match spec.deadline_s with
    | Some d when Float.is_nan d || d < 0.0 -> bad "deadline_s must be non-negative"
    | _ -> Ok ()

(* The one grid construction: capacity follows the circuit's total
   size, so a daemon-written checkpoint, a CLI --resume of it and an
   ECO-edited instance all agree on the structural instance hash. *)
let topology_of_spec (spec : Protocol.submit) nl =
  let capacity = Netlist.total_size nl /. float_of_int (spec.rows * spec.cols) *. spec.slack in
  Grid.make ~rows:spec.rows ~cols:spec.cols ~capacity ()

let deadline_of_spec (spec : Protocol.submit) =
  match spec.deadline_s with Some s -> Deadline.of_seconds s | None -> Deadline.none ()

(* The domains a worker's job may use: the daemon's main domain runs
   the connection threads and every ECO session's solves, and each
   worker domain one job at a time, so the workers share the rest
   (DESIGN.md D28). *)
let served_domains ~workers = max 1 ((Qbpart_evolve.Evolve.default_jobs () - 1) / workers)

let engine_config ?domains (spec : Protocol.submit) =
  let config =
    {
      Engine.Config.default with
      qbp =
        {
          Burkard.Config.default with
          iterations = spec.iterations;
          seed = spec.seed;
        };
      starts = spec.starts;
      generations = (if spec.evolve then spec.generations else 1);
      pool_size = spec.pool_size;
    }
  in
  match domains with
  | None -> config
  | Some domains ->
    {
      config with
      inner_jobs =
        Qbpart_evolve.Evolve.auto_inner_jobs ~domains
          ~jobs:(Qbpart_evolve.Evolve.default_jobs ())
          ~starts:config.starts ~generations:config.generations;
    }

(* A store checkpoint is only trusted for resume when it validates
   against the instance AND was produced by a run with the same base
   seed and start count — otherwise the resumed trajectory would not
   replay the original run and the bit-identical guarantee is void.  A
   stale or foreign file simply cold-starts. *)
let store_resume ~dir (spec : Protocol.submit) problem ~hash =
  let path = Checkpoint.store_path ~dir ~hash in
  match Checkpoint.load ~path with
  | Ok cp
    when Checkpoint.validate ~hash cp problem = Ok ()
         && cp.Checkpoint.base_seed = spec.seed
         && List.for_all (fun s -> s.Checkpoint.start < spec.starts) cp.Checkpoint.starts ->
    Some (cp, path)
  | Ok _ | Error _ -> None

let render_stage (s : Engine.Report.stage) =
  Format.asprintf "%s: %a (%.3fs, cost %.1f)" s.Engine.Report.name
    Engine.Report.pp_stage_outcome s.Engine.Report.outcome s.Engine.Report.wall_seconds
    s.Engine.Report.cost_after

let load_source what parse = function
  | Protocol.Inline text -> parse text
  | Protocol.File path -> (
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> parse text
    | exception Sys_error m ->
      Error (Protocol.Parse_error, Printf.sprintf "%s %s: %s" what path m))

let problem_of_spec (spec : Protocol.submit) =
  let ( let* ) = Result.bind in
  let* () = check_spec spec in
  let* nl =
    load_source "netlist" (fun text ->
        match Parser.parse_string text with
        | Ok nl -> Ok nl
        | Error e -> Error (Protocol.Parse_error, "netlist: " ^ Parser.error_to_string e))
      spec.netlist
  in
  let* constraints =
    match spec.timing with
    | None -> Ok None
    | Some source ->
      load_source "timing budgets" (fun text ->
          match Constraints_io.parse_string nl text with
          | Ok c -> Ok (Some c)
          | Error e ->
            Error (Protocol.Parse_error, "timing budgets: " ^ Constraints_io.error_to_string e))
        source
  in
  match Problem.make ?constraints nl (topology_of_spec spec nl) with
  | problem -> Ok problem
  | exception Invalid_argument msg -> Error (Protocol.Bad_request, msg)

(* --- views --------------------------------------------------------- *)

let view_of_job (j : job) =
  let now = Unix.gettimeofday () in
  let queued_seconds =
    match j.started_at with Some s -> s -. j.submitted_at | None -> now -. j.submitted_at
  in
  let wall_seconds =
    match (j.started_at, j.finished_at) with
    | Some s, Some f -> f -. s
    | Some s, None -> now -. s
    | None, _ -> 0.0
  in
  {
    Protocol.id = j.id;
    state = j.state;
    label = j.label;
    queued_seconds;
    wall_seconds;
    cost = j.cost;
    certified = j.certified;
    interrupted = j.interrupted;
    winner = j.winner;
    stages = j.stages;
    error = j.error;
    checkpoint = j.checkpoint_path;
    assignment = Option.map Array.copy j.assignment;
    resumed_from = j.resumed_from;
  }

(* --- the worker loop ----------------------------------------------- *)

let checkpoint_path t (j : job) = Filename.concat t.checkpoint_dir ("qbpartd-" ^ j.id ^ ".ckpt")

(* Replication: every checkpoint the engine emits is mirrored into the
   shared store, keyed by the instance hash it carries, so a
   replacement shard can pick the job up from the dead shard's last
   durable state.  The write is the atomic temp+rename
   {!Checkpoint.save}, so concurrent writers (two shards racing the
   same instance) can interleave but never tear the file.  Write
   failures are swallowed: replication is an availability
   optimisation, never a reason to fail the solve. *)
let replicate t cp =
  match t.replicate_dir with
  | None -> ()
  | Some dir ->
    let path = Checkpoint.store_path ~dir ~hash:cp.Checkpoint.instance_hash in
    ignore (Checkpoint.save ~path cp)

let persist_checkpoint t (j : job) =
  match j.last_checkpoint with
  | None -> ()
  | Some cp -> (
    let path = checkpoint_path t j in
    match Checkpoint.save ~path cp with
    | Ok () -> j.checkpoint_path <- Some path
    | Error e ->
      j.error <- Some (Printf.sprintf "checkpoint write failed: %s" (Checkpoint.error_to_string e)))

(* Every terminal transition ends here, under [t.mu]: the state, the
   finish time, the release of everything only the run needed, and the
   wake-up of the [await]ing event streams.  A checkpoint that must
   outlive the job is persisted (by [persist_checkpoint]) before this
   call. *)
let finish t (j : job) state =
  j.state <- state;
  j.finished_at <- Some (Unix.gettimeofday ());
  j.work <- None;
  j.last_checkpoint <- None;
  Condition.broadcast t.changed

let run_job t (j : job) =
  let work =
    locked t (fun () ->
        match j.work with
        | Some w when j.state <> Protocol.Cancelled ->
          j.state <- Protocol.Running;
          j.started_at <- Some (Unix.gettimeofday ());
          Condition.broadcast t.changed;
          let deadline = deadline_of_spec w.spec in
          (* a drain that raced this dispatch must still interrupt us *)
          if t.draining_flag || j.cancel_requested then Deadline.cancel deadline;
          j.deadline <- Some deadline;
          t.running_count <- t.running_count + 1;
          Some (w, deadline)
        | _ -> None)
  in
  match work with
  | None -> ()
  | Some ({ spec; problem; resume }, deadline) ->
    let config = engine_config ~domains:(served_domains ~workers:t.worker_count) spec in
    let on_checkpoint cp =
      j.last_checkpoint <- Some cp;
      replicate t cp
    in
    let result = Engine.solve ~config ~deadline ~on_checkpoint ?resume problem in
    locked t (fun () ->
        (match result with
        | Ok { Engine.assignment; cost; report; certificate } ->
          j.assignment <- Some (Array.copy assignment);
          j.cost <- Some cost;
          j.certified <- Some (Certify.ok certificate);
          j.winner <- Some report.Engine.Report.winner;
          j.stages <- List.map render_stage report.Engine.Report.stages;
          j.interrupted <- report.Engine.Report.deadline_expired;
          List.iter (Metrics.fallback t.metrics) report.Engine.Report.fallbacks;
          if j.interrupted || j.cancel_requested || t.draining_flag then
            persist_checkpoint t j;
          if j.cancel_requested then begin
            finish t j Protocol.Cancelled;
            Metrics.cancelled t.metrics
          end
          else begin
            finish t j Protocol.Done;
            Metrics.completed t.metrics
              ~wall:
                (Unix.gettimeofday () -. Option.value ~default:(Unix.gettimeofday ()) j.started_at)
          end
        | Error e ->
          j.error <- Some (Engine.Error.to_string e);
          finish t j Protocol.Failed;
          Metrics.failed t.metrics);
        t.running_count <- t.running_count - 1)

let worker_loop t () =
  let rec loop () =
    match Queue.pop t.queue with
    | None -> ()
    | Some job ->
      (try run_job t job
       with exn ->
         (* the engine never raises; this guards our own bookkeeping so
            a worker can never die and silently shrink the pool *)
         locked t (fun () ->
             job.error <- Some (Printexc.to_string exn);
             finish t job Protocol.Failed;
             Metrics.failed t.metrics));
      loop ()
  in
  loop ()

(* --- API ----------------------------------------------------------- *)

let create ?(workers = 2) ?(checkpoint_dir = ".") ?replicate_dir ~queue_capacity ~metrics () =
  if workers < 1 then invalid_arg "Scheduler.create: workers must be >= 1";
  let t =
    {
      mu = Mutex.create ();
      changed = Condition.create ();
      queue = Queue.create ~capacity:queue_capacity ();
      jobs = Hashtbl.create 64;
      metrics;
      checkpoint_dir;
      replicate_dir;
      next_id = 1;
      running_count = 0;
      draining_flag = false;
      workers = [];
      worker_count = workers;
    }
  in
  t.workers <- List.init workers (fun _ -> Domain.spawn (worker_loop t));
  t

let submit t spec =
  match problem_of_spec spec with
  | Error (code, msg) ->
    Metrics.rejected t.metrics;
    Error (code, msg)
  | Ok problem ->
    (* the replicated store is the only reader of the hash here; the
       engine takes its own, once, for the job's resume check and
       checkpoints *)
    let resume_from =
      Option.bind t.replicate_dir (fun dir ->
          store_resume ~dir spec problem ~hash:(Checkpoint.instance_hash problem))
    in
    locked t (fun () ->
        if t.draining_flag then begin
          Metrics.rejected t.metrics;
          Error (Protocol.Draining, "daemon is draining; resubmit elsewhere")
        end
        else begin
          let id = Printf.sprintf "j%d" t.next_id in
          let job =
            {
              id;
              label = spec.Protocol.label;
              resumed_from = Option.map snd resume_from;
              submitted_at = Unix.gettimeofday ();
              work = Some { spec; problem; resume = Option.map fst resume_from };
              started_at = None;
              finished_at = None;
              state = Protocol.Queued;
              deadline = None;
              cancel_requested = false;
              cost = None;
              certified = None;
              interrupted = false;
              winner = None;
              stages = [];
              error = None;
              last_checkpoint = None;
              checkpoint_path = None;
              assignment = None;
            }
          in
          match Queue.push t.queue ~priority:spec.Protocol.priority job with
          | Queue.Accepted { depth; shed } ->
            t.next_id <- t.next_id + 1;
            Hashtbl.replace t.jobs id job;
            Metrics.accepted t.metrics;
            (match shed with
            | None -> ()
            | Some (victim : job) ->
              victim.error <- Some "shed: evicted by an interactive arrival at capacity";
              finish t victim Protocol.Cancelled;
              Metrics.shed t.metrics;
              Metrics.cancelled t.metrics);
            Ok (id, depth)
          | Queue.Overloaded ->
            Metrics.rejected t.metrics;
            Error
              ( Protocol.Overloaded,
                Printf.sprintf "queue full (%d job%s queued, max %d)" (Queue.length t.queue)
                  (if Queue.length t.queue = 1 then "" else "s")
                  (Queue.capacity t.queue) )
          | Queue.Draining ->
            Metrics.rejected t.metrics;
            Error (Protocol.Draining, "daemon is draining; resubmit elsewhere")
        end)

let view t id = locked t (fun () -> Option.map view_of_job (Hashtbl.find_opt t.jobs id))

let await t id ~after =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> None
      | Some j ->
        let settled () =
          match j.state with
          | Protocol.Done | Protocol.Failed | Protocol.Cancelled -> true
          | Protocol.Queued | Protocol.Running -> Protocol.state_ordinal j.state > after
        in
        while not (settled ()) do
          Condition.wait t.changed t.mu
        done;
        Some (view_of_job j))

let cancel t id =
  locked t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> None
      | Some j ->
        (match j.state with
        | Protocol.Queued ->
          j.cancel_requested <- true;
          finish t j Protocol.Cancelled;
          Metrics.cancelled t.metrics
        | Protocol.Running ->
          j.cancel_requested <- true;
          Option.iter Deadline.cancel j.deadline
        | Protocol.Done | Protocol.Failed | Protocol.Cancelled -> ());
        Some (view_of_job j))

let queue_depth t = Queue.length t.queue
let running t = locked t (fun () -> t.running_count)
let draining t = locked t (fun () -> t.draining_flag)

let snapshot t =
  Metrics.snapshot t.metrics ~queue_depth:(Queue.length t.queue)
    ~running:(running t) ~draining:(draining t)

let drain t =
  let proceed =
    locked t (fun () ->
        if t.draining_flag then false
        else begin
          t.draining_flag <- true;
          true
        end)
  in
  if proceed then begin
    let leftover = Queue.drain t.queue in
    locked t (fun () ->
        List.iter
          (fun (j : job) ->
            if j.state = Protocol.Queued then begin
              j.error <- Some "daemon drained before the job started";
              finish t j Protocol.Cancelled;
              Metrics.cancelled t.metrics
            end)
          leftover;
        Hashtbl.iter
          (fun _ (j : job) ->
            if j.state = Protocol.Running then Option.iter Deadline.cancel j.deadline)
          t.jobs);
    List.iter Domain.join t.workers;
    t.workers <- []
  end
