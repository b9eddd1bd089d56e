let version = 3

type source = Inline of string | File of string

type priority = Interactive | Batch

let priority_to_string = function Interactive -> "interactive" | Batch -> "batch"

(* tolerant: an unknown class from a newer peer degrades to batch
   rather than rejecting the job *)
let priority_of_string = function "interactive" -> Interactive | _ -> Batch

type submit = {
  netlist : source;
  timing : source option;
  rows : int;
  cols : int;
  slack : float;
  iterations : int;
  seed : int;
  starts : int;
  evolve : bool;
  generations : int;
  pool_size : int;
  deadline_s : float option;
  label : string option;
  priority : priority;
}

let default_submit ~netlist =
  {
    netlist;
    timing = None;
    rows = 4;
    cols = 4;
    slack = 1.15;
    iterations = 100;
    seed = 1;
    starts = 1;
    evolve = false;
    generations = 4;
    pool_size = 8;
    deadline_s = None;
    label = None;
    priority = Batch;
  }

type request =
  | Submit of submit
  | Status of string
  | Events of { job : string; since : int }
  | Cancel of string
  | Metrics
  | Heartbeat
  | Drain
  (* v3 session ops *)
  | Session_open of submit
  | Eco_submit of { session : string; seq : int; delta : string; force_cold : bool }
  | Session_close of string

type job_state = Queued | Running | Done | Failed | Cancelled

let job_state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

let state_ordinal = function
  | Queued -> 0
  | Running -> 1
  | Done | Failed | Cancelled -> 2

let job_state_of_string = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "failed" -> Some Failed
  | "cancelled" -> Some Cancelled
  | _ -> None

type job_view = {
  id : string;
  state : job_state;
  label : string option;
  queued_seconds : float;
  wall_seconds : float;
  cost : float option;
  certified : bool option;
  interrupted : bool;
  winner : string option;
  stages : string list;
  error : string option;
  checkpoint : string option;
  assignment : int array option;
  resumed_from : string option;
}

type metrics_view = {
  accepted : int;
  rejected : int;
  completed : int;
  failed : int;
  cancelled : int;
  queue_depth : int;
  running : int;
  draining : bool;
  p50_wall : float;
  p99_wall : float;
  max_wall : float;
  uptime_seconds : float;
  fallbacks : (string * int) list;
  shed : int;
  (* v3: ECO session serving *)
  eco_warm_hits : int;
  eco_cold_fallbacks : int;
  cache_evictions : int;
  integrity_failures : int;
}

type eco_view = {
  eco_session : string;
  eco_seq : int;  (** last applied delta sequence number (0 = just opened) *)
  served : string;  (** ["warm"], ["cold"], ["resume"], or ["replay"] *)
  eco_cost : float;
  eco_certified : bool;
  eco_wall : float;
  eco_stages : string list;  (** degradation-ladder stage reports *)
  eco_assignment : int array option;
  eco_instance : string;  (** hex instance hash after the delta *)
}

type error_code =
  | Bad_request
  | Overloaded
  | Draining
  | Not_found
  | Parse_error
  | Solver_error
  | Oversized
  | Malformed
  | Unavailable
  | Internal
  (* v3 session errors *)
  | Invalid_delta
  | Unknown_session
  | Stale_session

let error_code_to_string = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Not_found -> "not_found"
  | Parse_error -> "parse_error"
  | Solver_error -> "solver_error"
  | Oversized -> "oversized"
  | Malformed -> "malformed"
  | Unavailable -> "unavailable"
  | Internal -> "internal"
  | Invalid_delta -> "invalid_delta"
  | Unknown_session -> "unknown_session"
  | Stale_session -> "stale_session"

let error_code_of_string = function
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "draining" -> Some Draining
  | "not_found" -> Some Not_found
  | "parse_error" -> Some Parse_error
  | "solver_error" -> Some Solver_error
  | "oversized" -> Some Oversized
  | "malformed" -> Some Malformed
  | "unavailable" -> Some Unavailable
  | "internal" -> Some Internal
  | "invalid_delta" -> Some Invalid_delta
  | "unknown_session" -> Some Unknown_session
  | "stale_session" -> Some Stale_session
  | _ -> None

type heartbeat_view = {
  shard : string;
  uptime : float;
  hb_queue_depth : int;
  hb_running : int;
  hb_draining : bool;
}

type response =
  | Submitted of { job : string; queue_depth : int }
  | Job of job_view
  | Metrics_snapshot of metrics_view
  | Event of { job : string; seq : int; state : job_state; detail : string option }
  | Heartbeat_ack of heartbeat_view
  | Drain_ack
  | Error of { code : error_code; message : string }
  (* v3 session ops *)
  | Eco_result of eco_view
  | Session_closed of { session : string; checkpoint : string option }

(* --- encoding ------------------------------------------------------ *)

let opt f = function None -> Json.Null | Some x -> f x
let jstr s = Json.String s
let jfloat f = Json.Float f

let source_to_json = function
  | Inline text -> Json.Obj [ ("inline", Json.String text) ]
  | File path -> Json.Obj [ ("path", Json.String path) ]

let submit_json op s =
  Json.Obj
    [
      ("v", Json.Int version);
      ("op", Json.String op);
      ("netlist", source_to_json s.netlist);
      ("timing", opt source_to_json s.timing);
      ("rows", Json.Int s.rows);
      ("cols", Json.Int s.cols);
      ("slack", Json.Float s.slack);
      ("iterations", Json.Int s.iterations);
      ("seed", Json.Int s.seed);
      ("starts", Json.Int s.starts);
      ("evolve", Json.Bool s.evolve);
      ("generations", Json.Int s.generations);
      ("pool_size", Json.Int s.pool_size);
      ("deadline_s", opt jfloat s.deadline_s);
      ("label", opt jstr s.label);
      ("priority", Json.String (priority_to_string s.priority));
    ]

let submit_to_json s = submit_json "submit" s

let job_request op id =
  Json.Obj [ ("v", Json.Int version); ("op", Json.String op); ("job", Json.String id) ]

let request_to_json = function
  | Submit s -> submit_to_json s
  | Status id -> job_request "status" id
  | Events { job; since } ->
    Json.Obj
      [
        ("v", Json.Int version);
        ("op", Json.String "events");
        ("job", Json.String job);
        ("since", Json.Int since);
      ]
  | Cancel id -> job_request "cancel" id
  | Metrics -> Json.Obj [ ("v", Json.Int version); ("op", Json.String "metrics") ]
  | Heartbeat -> Json.Obj [ ("v", Json.Int version); ("op", Json.String "heartbeat") ]
  | Drain -> Json.Obj [ ("v", Json.Int version); ("op", Json.String "drain") ]
  | Session_open s -> submit_json "session_open" s
  | Eco_submit { session; seq; delta; force_cold } ->
    Json.Obj
      [
        ("v", Json.Int version);
        ("op", Json.String "eco_submit");
        ("session", Json.String session);
        ("seq", Json.Int seq);
        ("delta", Json.String delta);
        ("force_cold", Json.Bool force_cold);
      ]
  | Session_close id ->
    Json.Obj
      [
        ("v", Json.Int version);
        ("op", Json.String "session_close");
        ("session", Json.String id);
      ]

let job_view_to_json (j : job_view) =
  Json.Obj
    [
      ("v", Json.Int version);
      ("type", Json.String "job");
      ("ok", Json.Bool true);
      ("job", Json.String j.id);
      ("state", Json.String (job_state_to_string j.state));
      ("label", opt jstr j.label);
      ("queued_seconds", Json.Float j.queued_seconds);
      ("wall_seconds", Json.Float j.wall_seconds);
      ("cost", opt jfloat j.cost);
      ("certified", opt (fun b -> Json.Bool b) j.certified);
      ("interrupted", Json.Bool j.interrupted);
      ("winner", opt jstr j.winner);
      ("stages", Json.List (List.map jstr j.stages));
      ("error", opt jstr j.error);
      ("checkpoint", opt jstr j.checkpoint);
      ( "assignment",
        opt (fun a -> Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))) j.assignment
      );
      ("resumed_from", opt jstr j.resumed_from);
    ]

let metrics_to_json (m : metrics_view) =
  Json.Obj
    [
      ("v", Json.Int version);
      ("type", Json.String "metrics");
      ("ok", Json.Bool true);
      ("accepted", Json.Int m.accepted);
      ("rejected", Json.Int m.rejected);
      ("completed", Json.Int m.completed);
      ("failed", Json.Int m.failed);
      ("cancelled", Json.Int m.cancelled);
      ("queue_depth", Json.Int m.queue_depth);
      ("running", Json.Int m.running);
      ("draining", Json.Bool m.draining);
      ("p50_wall", Json.Float m.p50_wall);
      ("p99_wall", Json.Float m.p99_wall);
      ("max_wall", Json.Float m.max_wall);
      ("uptime_seconds", Json.Float m.uptime_seconds);
      ( "fallbacks",
        Json.Obj (List.map (fun (stage, count) -> (stage, Json.Int count)) m.fallbacks) );
      ("shed", Json.Int m.shed);
      ("eco_warm_hits", Json.Int m.eco_warm_hits);
      ("eco_cold_fallbacks", Json.Int m.eco_cold_fallbacks);
      ("cache_evictions", Json.Int m.cache_evictions);
      ("integrity_failures", Json.Int m.integrity_failures);
    ]

let eco_to_json (e : eco_view) =
  Json.Obj
    [
      ("v", Json.Int version);
      ("type", Json.String "eco");
      ("ok", Json.Bool true);
      ("session", Json.String e.eco_session);
      ("seq", Json.Int e.eco_seq);
      ("served", Json.String e.served);
      ("cost", Json.Float e.eco_cost);
      ("certified", Json.Bool e.eco_certified);
      ("wall_seconds", Json.Float e.eco_wall);
      ("stages", Json.List (List.map jstr e.eco_stages));
      ( "assignment",
        opt
          (fun a -> Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a)))
          e.eco_assignment );
      ("instance", Json.String e.eco_instance);
    ]

let response_to_json = function
  | Submitted { job; queue_depth } ->
    Json.Obj
      [
        ("v", Json.Int version);
        ("type", Json.String "submitted");
        ("ok", Json.Bool true);
        ("job", Json.String job);
        ("queue_depth", Json.Int queue_depth);
      ]
  | Job j -> job_view_to_json j
  | Metrics_snapshot m -> metrics_to_json m
  | Event { job; seq; state; detail } ->
    Json.Obj
      [
        ("v", Json.Int version);
        ("type", Json.String "event");
        ("ok", Json.Bool true);
        ("job", Json.String job);
        ("seq", Json.Int seq);
        ("state", Json.String (job_state_to_string state));
        ("detail", opt jstr detail);
      ]
  | Heartbeat_ack h ->
    Json.Obj
      [
        ("v", Json.Int version);
        ("type", Json.String "heartbeat_ack");
        ("ok", Json.Bool true);
        ("shard", Json.String h.shard);
        ("uptime_seconds", Json.Float h.uptime);
        ("queue_depth", Json.Int h.hb_queue_depth);
        ("running", Json.Int h.hb_running);
        ("draining", Json.Bool h.hb_draining);
      ]
  | Drain_ack ->
    Json.Obj [ ("v", Json.Int version); ("type", Json.String "drain_ack"); ("ok", Json.Bool true) ]
  | Error { code; message } ->
    Json.Obj
      [
        ("v", Json.Int version);
        ("type", Json.String "error");
        ("ok", Json.Bool false);
        ("code", Json.String (error_code_to_string code));
        ("message", Json.String message);
      ]
  | Eco_result e -> eco_to_json e
  | Session_closed { session; checkpoint } ->
    Json.Obj
      [
        ("v", Json.Int version);
        ("type", Json.String "session_closed");
        ("ok", Json.Bool true);
        ("session", Json.String session);
        ("checkpoint", opt jstr checkpoint);
      ]

let encode_request r = Json.to_string (request_to_json r)
let encode_response r = Json.to_string (response_to_json r)

(* --- decoding ------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name doc = Json.member name doc
let missing what = Stdlib.Error (Printf.sprintf "missing or invalid %S" what)

let req_string name doc =
  match Option.bind (field name doc) Json.get_string with
  | Some s -> Ok s
  | None -> missing name

(* optional field: absent or null means default; present-but-wrong-type
   is an error (strict about types, liberal about presence) *)
let opt_field name conv ~default doc =
  match field name doc with
  | None | Some Json.Null -> Ok default
  | Some v -> ( match conv v with Some x -> Ok x | None -> missing name)

let opt_some name conv doc =
  match field name doc with
  | None | Some Json.Null -> Ok None
  | Some v -> ( match conv v with Some x -> Ok (Some x) | None -> missing name)

let source_of_json v =
  match (Option.bind (Json.member "inline" v) Json.get_string,
         Option.bind (Json.member "path" v) Json.get_string)
  with
  | Some text, None -> Some (Inline text)
  | None, Some path -> Some (File path)
  | _ -> None

let decode_submit doc =
  let* netlist =
    match Option.bind (field "netlist" doc) source_of_json with
    | Some s -> Ok s
    | None -> missing "netlist"
  in
  let d = default_submit ~netlist in
  let* timing = opt_some "timing" source_of_json doc in
  let* rows = opt_field "rows" Json.get_int ~default:d.rows doc in
  let* cols = opt_field "cols" Json.get_int ~default:d.cols doc in
  let* slack = opt_field "slack" Json.get_float ~default:d.slack doc in
  let* iterations = opt_field "iterations" Json.get_int ~default:d.iterations doc in
  let* seed = opt_field "seed" Json.get_int ~default:d.seed doc in
  let* starts = opt_field "starts" Json.get_int ~default:d.starts doc in
  let* evolve = opt_field "evolve" Json.get_bool ~default:d.evolve doc in
  let* generations = opt_field "generations" Json.get_int ~default:d.generations doc in
  let* pool_size = opt_field "pool_size" Json.get_int ~default:d.pool_size doc in
  let* deadline_s = opt_some "deadline_s" Json.get_float doc in
  let* label = opt_some "label" Json.get_string doc in
  let* priority =
    opt_field "priority"
      (fun v -> Option.map priority_of_string (Json.get_string v))
      ~default:d.priority doc
  in
  Ok
    {
      netlist;
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
    }

let decode_request text =
  let* doc = Json.of_string text in
  let* op = req_string "op" doc in
  match op with
  | "submit" ->
    let* s = decode_submit doc in
    Ok (Submit s)
  | "session_open" ->
    let* s = decode_submit doc in
    Ok (Session_open s)
  | "eco_submit" ->
    let* session = req_string "session" doc in
    let* seq = opt_field "seq" Json.get_int ~default:0 doc in
    let* delta = req_string "delta" doc in
    let* force_cold = opt_field "force_cold" Json.get_bool ~default:false doc in
    Ok (Eco_submit { session; seq; delta; force_cold })
  | "session_close" ->
    let* session = req_string "session" doc in
    Ok (Session_close session)
  | "status" ->
    let* id = req_string "job" doc in
    Ok (Status id)
  | "events" ->
    let* id = req_string "job" doc in
    let* since = opt_field "since" Json.get_int ~default:0 doc in
    Ok (Events { job = id; since })
  | "cancel" ->
    let* id = req_string "job" doc in
    Ok (Cancel id)
  | "metrics" -> Ok Metrics
  | "heartbeat" -> Ok Heartbeat
  | "drain" -> Ok Drain
  | op -> Stdlib.Error (Printf.sprintf "unknown op %S" op)

let decode_state doc =
  let* s = req_string "state" doc in
  match job_state_of_string s with
  | Some st -> Ok st
  | None -> Stdlib.Error (Printf.sprintf "unknown job state %S" s)

let decode_job doc =
  let* id = req_string "job" doc in
  let* state = decode_state doc in
  let* label = opt_some "label" Json.get_string doc in
  let* queued_seconds = opt_field "queued_seconds" Json.get_float ~default:0.0 doc in
  let* wall_seconds = opt_field "wall_seconds" Json.get_float ~default:0.0 doc in
  let* cost = opt_some "cost" Json.get_float doc in
  let* certified = opt_some "certified" Json.get_bool doc in
  let* interrupted = opt_field "interrupted" Json.get_bool ~default:false doc in
  let* winner = opt_some "winner" Json.get_string doc in
  let* stages =
    opt_field "stages"
      (fun v ->
        Option.bind (Json.get_list v) (fun xs ->
            let strs = List.filter_map Json.get_string xs in
            if List.length strs = List.length xs then Some strs else None))
      ~default:[] doc
  in
  let* error = opt_some "error" Json.get_string doc in
  let* checkpoint = opt_some "checkpoint" Json.get_string doc in
  let* assignment =
    opt_some "assignment"
      (fun v ->
        Option.bind (Json.get_list v) (fun xs ->
            let ints = List.filter_map Json.get_int xs in
            if List.length ints = List.length xs then Some (Array.of_list ints) else None))
      doc
  in
  let* resumed_from = opt_some "resumed_from" Json.get_string doc in
  Ok
    (Job
       {
         id;
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

let decode_metrics doc =
  let* accepted = opt_field "accepted" Json.get_int ~default:0 doc in
  let* rejected = opt_field "rejected" Json.get_int ~default:0 doc in
  let* completed = opt_field "completed" Json.get_int ~default:0 doc in
  let* failed = opt_field "failed" Json.get_int ~default:0 doc in
  let* cancelled = opt_field "cancelled" Json.get_int ~default:0 doc in
  let* queue_depth = opt_field "queue_depth" Json.get_int ~default:0 doc in
  let* running = opt_field "running" Json.get_int ~default:0 doc in
  let* draining = opt_field "draining" Json.get_bool ~default:false doc in
  let* p50_wall = opt_field "p50_wall" Json.get_float ~default:0.0 doc in
  let* p99_wall = opt_field "p99_wall" Json.get_float ~default:0.0 doc in
  let* max_wall = opt_field "max_wall" Json.get_float ~default:0.0 doc in
  let* uptime_seconds = opt_field "uptime_seconds" Json.get_float ~default:0.0 doc in
  let* fallbacks =
    opt_field "fallbacks"
      (function
        | Json.Obj fields ->
          let counts = List.filter_map (fun (k, v) -> Option.map (fun c -> (k, c)) (Json.get_int v)) fields in
          if List.length counts = List.length fields then Some counts else None
        | _ -> None)
      ~default:[] doc
  in
  let* shed = opt_field "shed" Json.get_int ~default:0 doc in
  let* eco_warm_hits = opt_field "eco_warm_hits" Json.get_int ~default:0 doc in
  let* eco_cold_fallbacks = opt_field "eco_cold_fallbacks" Json.get_int ~default:0 doc in
  let* cache_evictions = opt_field "cache_evictions" Json.get_int ~default:0 doc in
  let* integrity_failures = opt_field "integrity_failures" Json.get_int ~default:0 doc in
  Ok
    (Metrics_snapshot
       {
         accepted;
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

let decode_eco doc =
  let* eco_session = req_string "session" doc in
  let* eco_seq = opt_field "seq" Json.get_int ~default:0 doc in
  let* served = opt_field "served" Json.get_string ~default:"cold" doc in
  let* eco_cost = opt_field "cost" Json.get_float ~default:0.0 doc in
  let* eco_certified = opt_field "certified" Json.get_bool ~default:false doc in
  let* eco_wall = opt_field "wall_seconds" Json.get_float ~default:0.0 doc in
  let* eco_stages =
    opt_field "stages"
      (fun v ->
        Option.bind (Json.get_list v) (fun xs ->
            let strs = List.filter_map Json.get_string xs in
            if List.length strs = List.length xs then Some strs else None))
      ~default:[] doc
  in
  let* eco_assignment =
    opt_some "assignment"
      (fun v ->
        Option.bind (Json.get_list v) (fun xs ->
            let ints = List.filter_map Json.get_int xs in
            if List.length ints = List.length xs then Some (Array.of_list ints) else None))
      doc
  in
  let* eco_instance = opt_field "instance" Json.get_string ~default:"" doc in
  Ok
    (Eco_result
       {
         eco_session;
         eco_seq;
         served;
         eco_cost;
         eco_certified;
         eco_wall;
         eco_stages;
         eco_assignment;
         eco_instance;
       })

let decode_response text =
  let* doc = Json.of_string text in
  let* ty = req_string "type" doc in
  match ty with
  | "submitted" ->
    let* job = req_string "job" doc in
    let* queue_depth = opt_field "queue_depth" Json.get_int ~default:0 doc in
    Ok (Submitted { job; queue_depth })
  | "job" -> decode_job doc
  | "metrics" -> decode_metrics doc
  | "event" ->
    let* job = req_string "job" doc in
    let* seq = opt_field "seq" Json.get_int ~default:0 doc in
    let* state = decode_state doc in
    let* detail = opt_some "detail" Json.get_string doc in
    Ok (Event { job; seq; state; detail })
  | "heartbeat_ack" ->
    let* shard = opt_field "shard" Json.get_string ~default:"" doc in
    let* uptime = opt_field "uptime_seconds" Json.get_float ~default:0.0 doc in
    let* hb_queue_depth = opt_field "queue_depth" Json.get_int ~default:0 doc in
    let* hb_running = opt_field "running" Json.get_int ~default:0 doc in
    let* hb_draining = opt_field "draining" Json.get_bool ~default:false doc in
    Ok (Heartbeat_ack { shard; uptime; hb_queue_depth; hb_running; hb_draining })
  | "drain_ack" -> Ok Drain_ack
  | "eco" -> decode_eco doc
  | "session_closed" ->
    let* session = req_string "session" doc in
    let* checkpoint = opt_some "checkpoint" Json.get_string doc in
    Ok (Session_closed { session; checkpoint })
  | "error" ->
    let* code_text = req_string "code" doc in
    let* code =
      match error_code_of_string code_text with
      | Some c -> Ok c
      | None -> Stdlib.Error (Printf.sprintf "unknown error code %S" code_text)
    in
    let* message = req_string "message" doc in
    Ok (Error { code; message })
  | ty -> Stdlib.Error (Printf.sprintf "unknown response type %S" ty)

let pp_response ppf = function
  | Submitted { job; queue_depth } ->
    Format.fprintf ppf "submitted %s (queue depth %d)" job queue_depth
  | Job j ->
    Format.fprintf ppf "job %s: %s%s" j.id
      (job_state_to_string j.state)
      (match j.cost with Some c -> Printf.sprintf " cost=%g" c | None -> "")
  | Metrics_snapshot m ->
    Format.fprintf ppf "metrics: %d accepted, %d completed, depth %d" m.accepted m.completed
      m.queue_depth
  | Event { job; seq; state; _ } ->
    Format.fprintf ppf "event %s #%d: %s" job seq (job_state_to_string state)
  | Heartbeat_ack h ->
    Format.fprintf ppf "heartbeat %s: depth %d, running %d%s" h.shard h.hb_queue_depth h.hb_running
      (if h.hb_draining then " (draining)" else "")
  | Drain_ack -> Format.fprintf ppf "drain acknowledged"
  | Eco_result e ->
    Format.fprintf ppf "eco %s #%d: %s cost=%g%s" e.eco_session e.eco_seq e.served
      e.eco_cost
      (if e.eco_certified then " certified" else " UNCERTIFIED")
  | Session_closed { session; checkpoint } ->
    Format.fprintf ppf "session %s closed%s" session
      (match checkpoint with Some p -> " (checkpoint " ^ p ^ ")" | None -> "")
  | Error { code; message } ->
    Format.fprintf ppf "error %s: %s" (error_code_to_string code) message
