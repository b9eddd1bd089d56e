module Netlist = Qbpart_netlist.Netlist
module Delta = Qbpart_netlist.Delta
module Topology = Qbpart_topology.Topology
module Assignment = Qbpart_partition.Assignment
module Problem = Qbpart_core.Problem
module Qmatrix = Qbpart_core.Qmatrix
module Repair = Qbpart_core.Repair
module Certify = Qbpart_core.Certify
module Engine = Qbpart_engine.Engine
module Checkpoint = Qbpart_engine.Checkpoint

(* --- fault injection ----------------------------------------------- *)

module Fault = struct
  type t = { corrupt : int option; stale : int option }

  let none = { corrupt = None; stale = None }

  let of_spec s =
    let parse_kv acc kv =
      match acc with
      | Error _ as e -> e
      | Ok f -> (
        match String.index_opt kv '=' with
        | None -> Error (Printf.sprintf "bad fault clause %S (want key=N)" kv)
        | Some i -> (
          let key = String.sub kv 0 i in
          let v = String.sub kv (i + 1) (String.length kv - i - 1) in
          match int_of_string_opt v with
          | None | Some 0 -> Error (Printf.sprintf "bad fault count %S for %S" v key)
          | Some n when n < 0 -> Error (Printf.sprintf "bad fault count %S for %S" v key)
          | Some n -> (
            match key with
            | "corrupt" -> Ok { f with corrupt = Some n }
            | "stale" -> Ok { f with stale = Some n }
            | _ -> Error (Printf.sprintf "unknown fault point %S" key))))
    in
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
    |> List.fold_left parse_kv (Ok none)

  let to_spec f =
    [ ("corrupt", f.corrupt); ("stale", f.stale) ]
    |> List.filter_map (fun (k, v) -> Option.map (Printf.sprintf "%s=%d" k) v)
    |> String.concat ","
end

(* --- configuration -------------------------------------------------- *)

type config = { checkpoint_dir : string; fault : Fault.t option }

(* --- state ---------------------------------------------------------- *)

(* A session's warm incumbent: the certified assignment and cost on its
   current problem, and an integrity stamp over both that every reuse
   re-verifies: serving a silently corrupted incumbent would defeat the
   whole point of the certification pipeline downstream. *)
type incumbent = { assignment : Assignment.t; cost : float; stamp : int64 }

type session = {
  sid : string;
  spec : Protocol.submit;
  mutable problem : Problem.t;
  mutable hash : int64;
  mutable seq : int;
  mutable last : Protocol.eco_view option; (* for idempotent replay *)
  mutable held : incumbent option; (* None after a failed integrity re-check *)
}

type t = {
  mu : Mutex.t;
  config : config;
  metrics : Metrics.t;
  sessions : (string, session) Hashtbl.t;
  mutable next_sid : int;
  mutable eco_count : int; (* fault-point clock: k-th eco submit *)
}

let create config ~metrics =
  {
    mu = Mutex.create ();
    config;
    metrics;
    sessions = Hashtbl.create 16;
    next_sid = 0;
    eco_count = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* fires exactly once, on the k-th eco submit (t.eco_count is already
   incremented for the current request when this is consulted) *)
let fire t point =
  match t.config.fault with
  | None -> false
  | Some f -> (
    match point f with Some k -> k = t.eco_count | None -> false)

(* --- integrity stamp ------------------------------------------------ *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let[@inline] fnv1a64 h v = Int64.mul (Int64.logxor h v) fnv_prime

(* a loop on an unboxed local: it allocates only its result *)
let stamp ~assignment ~cost =
  let h = ref fnv_offset in
  for j = 0 to Array.length assignment - 1 do
    h := fnv1a64 !h (Int64.of_int assignment.(j))
  done;
  fnv1a64 !h (Int64.bits_of_float cost)

let incumbent ~assignment ~cost =
  { assignment = Assignment.copy assignment; cost; stamp = stamp ~assignment ~cost }

(* --- solving -------------------------------------------------------- *)

let hex_hash h = Printf.sprintf "%Lx" h

let cold_solve t ~(spec : Protocol.submit) ~problem ~hash ~resume =
  let resume =
    if resume then
      Option.map fst (Scheduler.store_resume ~dir:t.config.checkpoint_dir spec problem ~hash)
    else None
  in
  (* the cold solve runs on the daemon's main domain, which the
     workers' share leaves out for it *)
  let config = Scheduler.engine_config ~domains:1 spec in
  let deadline = Scheduler.deadline_of_spec spec in
  match Engine.solve ~config ~deadline ?resume problem with
  | Error e -> Error (Protocol.Solver_error, Engine.Error.to_string e)
  | Ok o ->
    let stages = List.map Scheduler.render_stage o.Engine.report.Engine.Report.stages in
    List.iter (Metrics.fallback t.metrics) o.Engine.report.Engine.Report.fallbacks;
    Ok (o, stages, Option.is_some resume)

(* --- session open --------------------------------------------------- *)

let view ~session ~seq ~served ~cost ~certified ~wall ~stages ~assignment ~hash =
  {
    Protocol.eco_session = session;
    eco_seq = seq;
    served;
    eco_cost = cost;
    eco_certified = certified;
    eco_wall = wall;
    eco_stages = stages;
    eco_assignment = Some (Array.copy assignment);
    eco_instance = hex_hash hash;
  }

let open_session t spec =
  match Scheduler.problem_of_spec spec with
  | Error _ as e -> e
  | Ok problem ->
    locked t (fun () ->
        let started = Unix.gettimeofday () in
        let hash = Checkpoint.instance_hash problem in
        match cold_solve t ~spec ~problem ~hash ~resume:true with
        | Error _ as e -> e
        | Ok (o, stages, resumed) ->
          let sid =
            t.next_sid <- t.next_sid + 1;
            Printf.sprintf "s%d" t.next_sid
          in
          let v =
            view ~session:sid ~seq:0
              ~served:(if resumed then "resume" else "cold")
              ~cost:o.Engine.cost
              ~certified:(Certify.ok o.Engine.certificate)
              ~wall:(Unix.gettimeofday () -. started)
              ~stages ~assignment:o.Engine.assignment ~hash
          in
          let held = Some (incumbent ~assignment:o.Engine.assignment ~cost:o.Engine.cost) in
          Hashtbl.replace t.sessions sid { sid; spec; problem; hash; seq = 0; last = Some v; held };
          Ok v)

(* --- the warm path -------------------------------------------------- *)

(* Place the surviving incumbent into the renumbered instance and put
   each added component on the partition with the most spare capacity. *)
let remap_incumbent (dr : Problem.delta_result) old_a =
  let problem = dr.Problem.dr_problem in
  let n = Problem.n problem in
  let m = Problem.m problem in
  let a = Array.make n 0 in
  let added = ref [] in
  for j = 0 to n - 1 do
    let old = dr.Problem.dr_old_of_new.(j) in
    if old >= 0 then a.(j) <- old_a.(old) else added := j :: !added
  done;
  if !added <> [] then begin
    let loads = Array.make m 0.0 in
    for j = 0 to n - 1 do
      if dr.Problem.dr_old_of_new.(j) >= 0 then
        loads.(a.(j)) <- loads.(a.(j)) +. Netlist.size problem.Problem.netlist j
    done;
    List.iter
      (fun j ->
        let best = ref 0 in
        for i = 1 to m - 1 do
          let spare i = Topology.capacity problem.Problem.topology i -. loads.(i) in
          if spare i > spare !best then best := i
        done;
        a.(j) <- !best;
        loads.(!best) <- loads.(!best) +. Netlist.size problem.Problem.netlist j)
      (List.rev !added)
  end;
  a

(* validate already succeeded; run patch → repair → polish → certify
   and return the certified assignment and its cost, or [Error reason]
   to demote to a cold solve.  The edited instance is priced afresh,
   as the Burkard iteration prices every iterate (paper §4.3): a new
   implicit matrix and one row cache that the passes fill as they go. *)
let warm_attempt ~stages (dr : Problem.delta_result) old_a =
  let stage name ok detail =
    stages := Printf.sprintf "%s: %s%s" name (if ok then "ok" else "failed")
              (if detail = "" then "" else " (" ^ detail ^ ")")
              :: !stages
  in
  let problem = dr.Problem.dr_problem in
  let a = remap_incumbent dr old_a in
  let q = Qmatrix.make problem in
  let cache = Repair.cache ~m:(Problem.m problem) ~n:(Problem.n problem) in
  stage "patch" true "";
  if not (Repair.to_feasible ~cache q a ~rounds:8) then begin
    stage "repair" false "no feasible assignment reached";
    Error "repair"
  end
  else begin
    stage "repair" true "";
    Repair.polish ~cache q a ~passes:2;
    stage "polish" true "";
    let cert = Certify.check problem a in
    if not (Certify.ok cert) then begin
      stage "certify" false "independent audit rejected the warm answer";
      Error "certify"
    end
    else begin
      stage "certify" true (Printf.sprintf "objective %.1f" cert.Certify.objective);
      Ok (a, cert.Certify.objective)
    end
  end

(* --- eco ------------------------------------------------------------ *)

let adopt (s : session) ~seq ~problem ~hash ~assignment ~cost =
  s.problem <- problem;
  s.hash <- hash;
  s.seq <- seq;
  s.held <- Some (incumbent ~assignment ~cost)

let eco t ~session ~seq ~delta ~force_cold =
  locked t (fun () ->
      match Hashtbl.find_opt t.sessions session with
      | None -> Error (Protocol.Unknown_session, Printf.sprintf "no such session %S" session)
      | Some s -> (
        t.eco_count <- t.eco_count + 1;
        (* +2: +1 would collide with the idempotent-replay window *)
        if fire t (fun f -> f.Fault.stale) then s.seq <- s.seq + 2;
        if seq = s.seq && s.last <> None then
          (* idempotent replay of the last applied delta *)
          Ok { (Option.get s.last) with Protocol.served = "replay" }
        else if seq <> s.seq + 1 then
          Error
            ( Protocol.Stale_session,
              Printf.sprintf "session %s expects seq %d, got %d" s.sid (s.seq + 1) seq )
        else
          match Delta.parse_string delta with
          | Error e -> Error (Protocol.Invalid_delta, Delta.error_to_string e)
          | Ok ops -> (
            let started = Unix.gettimeofday () in
            (* validate: the edited instance is a new value, and the
               session's state is untouched until [adopt].  The spec's
               grid on the edited netlist makes it hash identically to
               one submitted from scratch. *)
            let topology = Scheduler.topology_of_spec s.spec in
            match Problem.apply_delta ~topology s.problem ops with
            | Error e -> Error (Protocol.Invalid_delta, Delta.error_to_string e)
            | Ok dr -> (
              let stages = ref [ "validate: ok" ] in
              let problem = dr.Problem.dr_problem in
              let hash = Checkpoint.instance_hash problem in
              let warm =
                if force_cold then Error "forced cold"
                else
                  match s.held with
                  | None ->
                    stages := "warm: miss" :: !stages;
                    Error "miss"
                  | Some inc ->
                    if fire t (fun f -> f.Fault.corrupt) then
                      (* corrupt the cached incumbent in place without
                         restamping: the stamp re-check must notice *)
                      inc.assignment.(0) <- (inc.assignment.(0) + 1) mod Problem.m s.problem;
                    if stamp ~assignment:inc.assignment ~cost:inc.cost <> inc.stamp then begin
                      Metrics.integrity_failure t.metrics;
                      s.held <- None;
                      stages := "warm: cached incumbent failed integrity re-check" :: !stages;
                      Error "integrity"
                    end
                    else warm_attempt ~stages dr inc.assignment
              in
              match warm with
              | Ok (assignment, cost) ->
                Metrics.eco_warm_hit t.metrics;
                adopt s ~seq ~problem ~hash ~assignment ~cost;
                let v =
                  view ~session:s.sid ~seq ~served:"warm" ~cost ~certified:true
                    ~wall:(Unix.gettimeofday () -. started)
                    ~stages:(List.rev !stages) ~assignment ~hash
                in
                s.last <- Some v;
                Ok v
              | Error _ -> (
                if not force_cold then Metrics.eco_cold_fallback t.metrics;
                match cold_solve t ~spec:s.spec ~problem ~hash ~resume:(not force_cold) with
                | Error _ as e -> e
                | Ok (o, cold_stages, _) ->
                  adopt s ~seq ~problem ~hash ~assignment:o.Engine.assignment
                    ~cost:o.Engine.cost;
                  let v =
                    view ~session:s.sid ~seq ~served:"cold" ~cost:o.Engine.cost
                      ~certified:(Certify.ok o.Engine.certificate)
                      ~wall:(Unix.gettimeofday () -. started)
                      ~stages:(List.rev !stages @ cold_stages)
                      ~assignment:o.Engine.assignment ~hash
                  in
                  s.last <- Some v;
                  Ok v)))))

(* --- close / drain -------------------------------------------------- *)

let checkpoint_session t (s : session) =
  match s.held with
  | None -> None
  | Some inc ->
    let path = Checkpoint.store_path ~dir:t.config.checkpoint_dir ~hash:s.hash in
    let ckpt =
      Checkpoint.make ~hash:s.hash ~problem:s.problem ~base_seed:s.spec.Protocol.seed
        ~elapsed:0.0 ~incumbent:inc.assignment ~incumbent_cost:inc.cost ~starts:[] ()
    in
    match Checkpoint.save ~path ckpt with Ok () -> Some path | Error _ -> None

let close_session t sid =
  locked t (fun () ->
      match Hashtbl.find_opt t.sessions sid with
      | None -> Error (Protocol.Unknown_session, Printf.sprintf "no such session %S" sid)
      | Some s ->
        Hashtbl.remove t.sessions sid;
        let checkpoint = checkpoint_session t s in
        Ok (Protocol.Session_closed { session = sid; checkpoint }))

let drain t =
  locked t (fun () ->
      Hashtbl.iter (fun _ s -> ignore (checkpoint_session t s)) t.sessions;
      Hashtbl.reset t.sessions)
