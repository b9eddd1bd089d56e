module Netlist = Qbpart_netlist.Netlist
module Rng = Qbpart_netlist.Rng
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Initial = Qbpart_partition.Initial
module Validate = Qbpart_partition.Validate
module Gap = Qbpart_gap.Gap
module Problem = Qbpart_core.Problem
module Qmatrix = Qbpart_core.Qmatrix
module Repair = Qbpart_core.Repair
module Burkard = Qbpart_core.Burkard
module Certify = Qbpart_core.Certify
module Gfm = Qbpart_baselines.Gfm
module Gkl = Qbpart_baselines.Gkl
module Evolve = Qbpart_evolve.Evolve

module Error = struct
  type t =
    | No_partitions of { components : int }
    | Invalid_config of { field : string; reason : string }
    | Invalid_initial of {
        expected_length : int;
        length : int;
        issues : Validate.issue list;
      }
    | No_feasible_start of { attempts : int; issues : Validate.issue list }
    | Certification_failed of { certificate : Certify.t }
    | Resume_rejected of string
    | Internal of string

  let pp_issues ppf issues =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
      Validate.pp_issue ppf
      (List.filteri (fun i _ -> i < 5) issues)

  let pp ppf = function
    | No_partitions { components } ->
      Format.fprintf ppf "topology has no partitions for %d component%s" components
        (if components = 1 then "" else "s")
    | Invalid_config { field; reason } ->
      Format.fprintf ppf "invalid configuration: %s %s" field reason
    | Invalid_initial { expected_length; length; issues = [] } ->
      Format.fprintf ppf "initial assignment has length %d, expected %d" length
        expected_length
    | Invalid_initial { issues; _ } ->
      Format.fprintf ppf "initial assignment unusable: %a" pp_issues issues
    | No_feasible_start { attempts; issues } ->
      Format.fprintf ppf "no feasible start found after %d attempts (best attempt: %a)"
        attempts pp_issues issues
    | Certification_failed { certificate } ->
      Format.fprintf ppf "result failed independent certification: %a" Certify.pp
        certificate
    | Resume_rejected reason -> Format.fprintf ppf "cannot resume: %s" reason
    | Internal msg -> Format.fprintf ppf "internal engine error: %s" msg

  let to_string e = Format.asprintf "%a" pp e
end

module Report = struct
  type stage_outcome =
    | Completed
    | Timed_out
    | Stalled of int
    | Crashed of string
    | Skipped of string

  type stage = {
    name : string;
    outcome : stage_outcome;
    wall_seconds : float;
    cost_after : float;
    detail : string option;
  }

  type t = {
    stages : stage list;
    fallbacks : string list;
    winner : string;
    initial_cost : float;
    final_cost : float;
    wall_seconds : float;
    deadline_expired : bool;
    issues : Validate.issue list;
  }

  let pp_stage_outcome ppf = function
    | Completed -> Format.pp_print_string ppf "completed"
    | Timed_out -> Format.pp_print_string ppf "timed out"
    | Stalled k -> Format.fprintf ppf "stalled after %d idle iterations" k
    | Crashed e -> Format.fprintf ppf "crashed: %s" e
    | Skipped why -> Format.fprintf ppf "skipped: %s" why

  let pp ppf t =
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun s ->
        Format.fprintf ppf "%-8s %a  (%.3fs, best %g)%t@," s.name pp_stage_outcome
          s.outcome s.wall_seconds s.cost_after
          (fun ppf ->
            match s.detail with
            | None -> ()
            | Some d -> Format.fprintf ppf "  [%s]" d))
      t.stages;
    Format.fprintf ppf "result   %s: %g -> %g in %.3fs" t.winner t.initial_cost
      t.final_cost t.wall_seconds;
    if t.deadline_expired then Format.fprintf ppf ", deadline expired";
    (match t.fallbacks with
    | [] -> ()
    | fs -> Format.fprintf ppf ", fallbacks: %s" (String.concat " -> " fs));
    (match t.issues with
    | [] -> ()
    | issues -> Format.fprintf ppf "@,INFEASIBLE: %a" Error.pp_issues issues);
    Format.fprintf ppf "@]"
end

module Fault = struct
  exception Injected of string

  type t =
    | Raise_at of int
    | Gap_overflow of int
    | Gap_freeze of int
    | Expire_mid_step6 of int
    | Flaky_start of int
    | Corrupt_incumbent
end

module Config = struct
  type t = {
    qbp : Burkard.Config.t;
    max_rounds : int;
    penalty_factor : float;
    stall_patience : int;
    stall_epsilon : float;
    start_attempts : int;
    starts : int;
    jobs : int option;
    inner_jobs : int;
    retries : int;
    generations : int;
    pool_size : int;
  }

  let default =
    {
      qbp = Burkard.Config.default;
      max_rounds = 4;
      penalty_factor = 8.0;
      stall_patience = 25;
      stall_epsilon = 1e-6;
      start_attempts = 200;
      starts = 1;
      jobs = None;
      inner_jobs = 0;
      retries = 1;
      generations = 1;
      pool_size = 8;
    }
end

type outcome = {
  assignment : Assignment.t;
  cost : float;
  report : Report.t;
  certificate : Certify.t;
}

(* --- input validation --------------------------------------------- *)

let validate_config (c : Config.t) =
  let err field reason = Some (Error.Invalid_config { field; reason }) in
  let q = c.Config.qbp in
  if q.Burkard.Config.iterations < 0 then err "qbp.iterations" "must be >= 0"
  else if Float.is_nan q.Burkard.Config.penalty || q.Burkard.Config.penalty <= 0.0 then
    err "qbp.penalty" "must be > 0"
  else if q.Burkard.Config.polish_passes < 0 then err "qbp.polish_passes" "must be >= 0"
  else if q.Burkard.Config.final_polish < 0 then err "qbp.final_polish" "must be >= 0"
  else if q.Burkard.Config.repair_every < 0 then err "qbp.repair_every" "must be >= 0"
  else if c.Config.max_rounds < 1 then err "max_rounds" "must be >= 1"
  else if Float.is_nan c.Config.penalty_factor || c.Config.penalty_factor <= 1.0 then
    err "penalty_factor" "must be > 1"
  else if c.Config.stall_patience < 0 then err "stall_patience" "must be >= 0"
  else if Float.is_nan c.Config.stall_epsilon || c.Config.stall_epsilon < 0.0 then
    err "stall_epsilon" "must be >= 0"
  else if c.Config.start_attempts < 1 then err "start_attempts" "must be >= 1"
  else if c.Config.starts < 1 then err "starts" "must be >= 1"
  else if (match c.Config.jobs with Some j -> j < 1 | None -> false) then
    err "jobs" "must be >= 1"
  else if c.Config.inner_jobs < 0 then err "inner_jobs" "must be >= 0"
  else if c.Config.retries < 0 then err "retries" "must be >= 0"
  else if c.Config.generations < 1 then err "generations" "must be >= 1"
  else if c.Config.pool_size < 1 then err "pool_size" "must be >= 1"
  else None

(* --- safety-net construction -------------------------------------- *)

let greedy_start ?constraints ?(attempts = 200) ?(seed = 1) nl topo =
  let n = Netlist.n nl and m = Topology.m topo in
  let check a = Validate.check ?constraints nl topo a in
  if n = 0 then Ok [||]
  else if m = 0 then Error (Error.No_partitions { components = n })
  else
    let greedy =
      match Initial.greedy_feasible ?constraints ~attempts (Rng.create seed) nl topo () with
      | Some a -> Some a
      | None ->
        (* the paper's own recipe: zero-B QBP reaches feasibility on
           tightly constrained instances where greedy packing cannot *)
        let problem = Problem.make ?constraints nl topo in
        let config = { Burkard.Config.default with iterations = 30; seed } in
        Burkard.initial_feasible ~config problem
    in
    match greedy with
    | Some a when check a = [] -> Ok a
    | Some _ | None -> (
      let candidate =
        match Initial.first_fit_decreasing nl topo with
        | None ->
          (* nothing even packs: diagnose the least-overfull stack *)
          let roomiest = ref 0 in
          for i = 1 to m - 1 do
            if Topology.capacity topo i > Topology.capacity topo !roomiest then roomiest := i
          done;
          Assignment.make ~n !roomiest
        | Some a -> (
          (* capacity holds; if timing is violated, strict repair may
             clear it without breaking C1 *)
          match constraints with
          | Some cons when not (Constraints.empty cons) && check a <> [] ->
            let problem = Problem.make ~constraints:cons nl topo in
            let strict = Qmatrix.make ~penalty:1e12 problem in
            let b = Assignment.copy a in
            ignore (Repair.to_feasible strict b ~rounds:10);
            if check b = [] then b else a
          | _ -> a)
      in
      match check candidate with
      | [] -> Ok candidate
      | issues -> Error (Error.No_feasible_start { attempts; issues }))

(* --- QBP stage instrumentation ------------------------------------ *)

let arm deadline fault : Burkard.gap_solver =
  match fault with
  | Fault.Raise_at k ->
    fun ~step ~k:kk ~default gap ->
      if step = Burkard.Step4 && kk >= k then
        raise (Fault.Injected (Printf.sprintf "injected failure at iteration %d" kk))
      else default gap
  | Fault.Gap_overflow k ->
    fun ~step:_ ~k:kk ~default gap ->
      if kk >= k then Array.make gap.Gap.n 0 else default gap
  | Fault.Gap_freeze k ->
    let frozen = ref None in
    fun ~step ~k:kk ~default gap ->
      if step = Burkard.Step6 && kk >= k then (
        match !frozen with
        | Some a -> Array.copy a
        | None ->
          let a = default gap in
          frozen := Some (Array.copy a);
          a)
      else default gap
  | Fault.Expire_mid_step6 k ->
    fun ~step ~k:kk ~default gap ->
      let r = default gap in
      if step = Burkard.Step6 && kk = k then Deadline.cancel deadline;
      r
  | Fault.Flaky_start n ->
    (* the first [n] GAP calls across the whole stage raise: with
       sequential execution (jobs = 1) attempt 0 of start 0 dies at its
       first STEP-4 call and the supervised retry runs clean — the
       deterministic "one flaky start" scenario *)
    let calls = Atomic.make 0 in
    fun ~step:_ ~k:_ ~default gap ->
      if Atomic.fetch_and_add calls 1 < n then
        raise (Fault.Injected "injected flaky start")
      else default gap
  | Fault.Corrupt_incumbent ->
    (* handled after the ladder (the reported cost is corrupted to
       simulate a delta-kernel drift bug); the solve itself runs clean *)
    fun ~step:_ ~k:_ ~default gap -> default gap

(* --- checkpoint supervision --------------------------------------- *)

(* Mutable view of the run from which checkpoints are built: the best
   feasible incumbent seen anywhere (including starts that completed
   before the current stage adopted anything) plus the per-start
   progress ledger.  Worker domains mutate it only under the
   search driver's completion lock; the orchestrating domain mutates it
   between stages.  [hash] is the instance's, taken once per solve. *)
type supervision = {
  hash : int64;
  mutable inc : Assignment.t;
  mutable inc_cost : float;
  mutable inc_start : int;  (* provenance start index; -1 = safety/initial *)
  mutable progress : Checkpoint.start_progress list;
  base_elapsed : float;
  notify : Checkpoint.t -> unit;
}

(* --- the ladder ---------------------------------------------------- *)

(* An equal-cost comparison everywhere below breaks ties by ascending
   provenance index with the safety/initial start as -1 — the same
   order the search driver's deterministic reduction uses.  This is what
   keeps a kill-and-resume solve bit-identical to an uninterrupted one:
   a re-run start that merely ties the checkpoint incumbent must lose
   or win by index exactly as it would have in the original run. *)
let beats ~cost:c ~at ~best_cost ~best_at = c < best_cost || (c = best_cost && at < best_at)

let run_ladder (config : Config.t) deadline initial fault problem start ~init_start ~sup
    ~skip_starts =
  let nl = problem.Problem.netlist and topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  let cost a = Problem.objective problem a in
  let feasible a = Validate.check ~constraints:cons nl topo a = [] in
  let best = ref (Assignment.copy start) in
  let best_cost = ref (cost start) in
  let best_start = ref init_start in
  let initial_cost = !best_cost in
  let winner = ref "initial" in
  let stages =
    ref
      [
        {
          Report.name = "initial";
          outcome = Report.Completed;
          wall_seconds = Deadline.elapsed deadline;
          cost_after = initial_cost;
          detail = None;
        };
      ]
  in
  let fallbacks = ref [] in
  (* the default provenance loses all ties: an un-indexed adopter
     (fallback rungs) replaces the best only on strict improvement,
     exactly as before *)
  let adopt ?(at = max_int) name a =
    let c = cost a in
    if beats ~cost:c ~at ~best_cost:!best_cost ~best_at:!best_start && feasible a then begin
      best := Assignment.copy a;
      best_cost := c;
      best_start := at;
      winner := name
    end
  in
  let emit () =
    match sup with
    | None -> ()
    | Some s ->
      if beats ~cost:!best_cost ~at:!best_start ~best_cost:s.inc_cost ~best_at:s.inc_start
      then begin
        s.inc <- Assignment.copy !best;
        s.inc_cost <- !best_cost;
        s.inc_start <- !best_start
      end;
      let starts =
        List.sort
          (fun a b -> compare a.Checkpoint.start b.Checkpoint.start)
          s.progress
      in
      s.notify
        (Checkpoint.make ~hash:s.hash ~problem ~base_seed:config.Config.qbp.Burkard.Config.seed
           ~elapsed:(s.base_elapsed +. Deadline.elapsed deadline) ~incumbent:s.inc
           ~incumbent_cost:s.inc_cost ~incumbent_start:s.inc_start ~starts ())
  in
  emit ();
  let record ?detail name outcome t0 =
    stages :=
      {
        Report.name;
        outcome;
        wall_seconds = Deadline.elapsed deadline -. t0;
        cost_after = !best_cost;
        detail;
      }
      :: !stages;
    emit ()
  in
  (* primary: the search driver (DESIGN.md D18) under the deadline and
     a per-start stall guard — one start, independent starts, or a
     population search, as [starts] and [generations] say *)
  let qbp_produced = ref false in
  let evolving = config.Config.generations > 1 in
  let primary_name =
    if evolving then "evolve" else if config.Config.starts > 1 then "portfolio" else "qbp"
  in
  let qbp_outcome =
    let t0 = Deadline.elapsed deadline in
    if Deadline.expired deadline then begin
      let o = Report.Skipped "deadline expired before the stage started" in
      record primary_name o t0;
      o
    end
    else begin
      let gap_solver = Option.map (arm deadline) fault in
      let warm = match initial with Some a -> a | None -> start in
      let should_stop () = Deadline.expired deadline in
      (* A multi-generation run is not resumable start-by-start — the
         elite pool would be lost across the kill — so it records no
         per-start progress and skips nothing (a resume re-runs the
         whole stage on the remaining budget).  An interrupted start is
         NOT checkpointed as done either: a resume re-runs it on the
         remaining budget.  Every finished start's champion still
         feeds the incumbent, kept fresh for failover serving. *)
      let on_start_complete =
        match sup with
        | None -> None
        | Some s ->
          Some
            (fun (sr : Evolve.start_report) best_feasible ->
              if not (evolving || sr.Evolve.interrupted) then
                s.progress <-
                  {
                    Checkpoint.start = sr.Evolve.start;
                    seed = sr.Evolve.seed;
                    attempts = sr.Evolve.attempts;
                    feasible_cost = sr.Evolve.feasible_cost;
                    failure = sr.Evolve.failure;
                  }
                  :: s.progress;
              (match best_feasible with
              | Some (a, _) ->
                let c = cost a in
                if
                  beats ~cost:c ~at:sr.Evolve.start ~best_cost:s.inc_cost
                    ~best_at:s.inc_start
                  && feasible a
                then begin
                  s.inc <- a;
                  s.inc_cost <- c;
                  s.inc_start <- sr.Evolve.start
                end
              | None -> ());
              emit ())
      in
      let detail = ref None in
      let o =
        try
          let r =
            Evolve.solve ~config:config.Config.qbp ~max_rounds:config.Config.max_rounds
              ~factor:config.Config.penalty_factor ?jobs:config.Config.jobs
              ?inner_jobs:
                (match config.Config.inner_jobs with 0 -> None | i -> Some i)
              ~starts:config.Config.starts
              ~generations:config.Config.generations ~pool_size:config.Config.pool_size
              ~retries:config.Config.retries
              ~skip:(if evolving then fun _ -> false else skip_starts)
              ~initial:warm ~should_stop
              ~stall:(config.Config.stall_patience, config.Config.stall_epsilon)
              ?gap_solver ?on_start_complete problem
          in
          (let executed = List.length r.Evolve.reports in
           let count p = List.length (List.filter p r.Evolve.reports) in
           let retried = count (fun s -> s.Evolve.attempts > 1) in
           let failed = count (fun s -> s.Evolve.failure <> None) in
           detail :=
             if evolving then
               Some
                 (Printf.sprintf "%d gens, %d/%d starts, %d admitted, %d reseeded"
                    r.Evolve.generations executed config.Config.starts r.Evolve.admitted
                    r.Evolve.reseeded)
             else if retried > 0 || failed > 0 || executed < config.Config.starts then
               Some
                 (Printf.sprintf "%d/%d starts ran, %d retried, %d failed" executed
                    config.Config.starts retried failed)
             else None);
          (match r.Evolve.best_feasible with
          | Some (a, _) ->
            qbp_produced := true;
            adopt ?at:r.Evolve.winner primary_name a
          | None -> ());
          if Deadline.expired deadline then Report.Timed_out
          else if
            r.Evolve.reports <> [] && List.for_all (fun s -> s.Evolve.stalled) r.Evolve.reports
          then Report.Stalled config.Config.stall_patience
          else Report.Completed
        with e -> Report.Crashed (Printexc.to_string e)
      in
      record ?detail:!detail primary_name o t0;
      o
    end
  in
  (* fallbacks, each from the best solution so far, on what budget is
     left; a fallback is only attempted when the rung above it failed *)
  let stop = Deadline.should_stop deadline in
  let p = problem.Problem.p in
  let alpha = problem.Problem.alpha and beta = problem.Problem.beta in
  let run_fallback name solver =
    let t0 = Deadline.elapsed deadline in
    if Deadline.expired deadline then begin
      let o = Report.Skipped "deadline expired" in
      record name o t0;
      o
    end
    else begin
      fallbacks := name :: !fallbacks;
      let o =
        try
          let a, interrupted = solver (Assignment.copy !best) in
          adopt name a;
          if interrupted then Report.Timed_out else Report.Completed
        with e -> Report.Crashed (Printexc.to_string e)
      in
      record name o t0;
      o
    end
  in
  (if not (qbp_outcome = Report.Completed && !qbp_produced) then
     let gkl_outcome =
       run_fallback "gkl" (fun init ->
           let r =
             Gkl.solve ?p ~alpha ~beta ~constraints:cons
               ~should_stop:stop nl topo ~initial:init
           in
           (r.Gkl.assignment, r.Gkl.interrupted))
     in
     if gkl_outcome <> Report.Completed then
       ignore
         (run_fallback "gfm" (fun init ->
              let r =
                Gfm.solve ?p ~alpha ~beta ~constraints:cons
                  ~should_stop:stop nl topo ~initial:init
              in
              (r.Gfm.assignment, r.Gfm.interrupted))));
  let issues = Validate.check ~constraints:cons nl topo !best in
  let report =
    {
      Report.stages = List.rev !stages;
      fallbacks = List.rev !fallbacks;
      winner = !winner;
      initial_cost;
      final_cost = !best_cost;
      wall_seconds = Deadline.elapsed deadline;
      deadline_expired = Deadline.expired deadline;
      issues;
    }
  in
  (!best, !best_cost, report)

let solve ?(config = Config.default) ?deadline ?initial ?fault ?on_checkpoint ?resume
    problem =
  let deadline = match deadline with Some d -> d | None -> Deadline.none () in
  match validate_config config with
  | Some e -> Error e
  | None -> (
    let nl = problem.Problem.netlist and topo = problem.Problem.topology in
    let cons = problem.Problem.constraints in
    let n = Problem.n problem and m = Problem.m problem in
    if n > 0 && m = 0 then Error (Error.No_partitions { components = n })
    else
      (* A checkpoint replaces the caller's warm start with its
         incumbent (validated below like any [initial]) and excludes
         the starts it already ran; the elapsed budget it carries is
         added to every checkpoint written from here on. *)
      (* one hash serves the resume check and every checkpoint *)
      let hash = lazy (Checkpoint.instance_hash problem) in
      let resume_resolved =
        match resume with
        | None -> Ok (initial, (fun _ -> false), 0.0, [], -1)
        | Some cp -> (
          match Checkpoint.validate ~hash:(Lazy.force hash) cp problem with
          | Error e -> Error (Error.Resume_rejected (Checkpoint.error_to_string e))
          | Ok () ->
            let done_ = List.map (fun s -> s.Checkpoint.start) cp.Checkpoint.starts in
            Ok
              ( Some cp.Checkpoint.incumbent,
                (fun k -> List.mem k done_),
                cp.Checkpoint.elapsed,
                cp.Checkpoint.starts,
                cp.Checkpoint.incumbent_start ))
      in
      match resume_resolved with
      | Error e -> Error e
      | Ok (initial, skip_starts, base_elapsed, resumed_progress, init_start) -> (
        let initial_err =
          match initial with
          | None -> None
          | Some a ->
            if Array.length a <> n then
              Some
                (Error.Invalid_initial
                   { expected_length = n; length = Array.length a; issues = [] })
            else
              let range =
                List.filter
                  (function Validate.Out_of_range _ -> true | _ -> false)
                  (Validate.check ~constraints:cons nl topo a)
              in
              if range <> [] then
                Some
                  (Error.Invalid_initial
                     { expected_length = n; length = n; issues = range })
              else None
        in
        match initial_err with
        | Some e -> Error e
        | None -> (
          let safety =
            match initial with
            | Some a when Validate.check ~constraints:cons nl topo a = [] ->
              Ok (Assignment.copy a)
            | _ ->
              greedy_start ~constraints:cons ~attempts:config.Config.start_attempts
                ~seed:config.Config.qbp.Burkard.Config.seed nl topo
          in
          match safety with
          | Error e -> Error e
          | Ok start -> (
            (* On resume, the re-run starts must see the warm start the
               original run fed them — the greedy safety start derived
               from the base seed — not the checkpoint incumbent: a
               start that was mid-flight at the kill would otherwise
               ascend from a different point and the resumed answer
               would no longer be bit-identical to an uninterrupted
               run.  The incumbent still competes: it seeds [start] (and
               the supervision incumbent) above, with its recorded
               provenance index deciding ties. *)
            let warm =
              match resume with
              | None -> initial
              | Some _ -> (
                match
                  greedy_start ~constraints:cons ~attempts:config.Config.start_attempts
                    ~seed:config.Config.qbp.Burkard.Config.seed nl topo
                with
                | Ok g -> Some g
                | Error _ -> initial)
            in
            let sup =
              match on_checkpoint with
              | None -> None
              | Some notify ->
                Some
                  {
                    hash = Lazy.force hash;
                    inc = Assignment.copy start;
                    inc_cost = Problem.objective problem start;
                    inc_start = init_start;
                    progress = resumed_progress;
                    base_elapsed;
                    notify;
                  }
            in
            try
              let best, best_cost, report =
                run_ladder config deadline warm fault problem start ~init_start ~sup
                  ~skip_starts
              in
              (* Every result is audited before it is reported: the
                 certifier recomputes the objective and all three
                 constraint families from the raw instance, so a drift
                 bug in the incremental kernels surfaces as a
                 structured error, never as a silently wrong answer. *)
              let claimed =
                match fault with
                | Some Fault.Corrupt_incumbent -> (best_cost *. 1.01) +. 1.0
                | _ -> best_cost
              in
              let certificate = Certify.check ~claimed problem best in
              if Certify.ok certificate then
                Ok { assignment = best; cost = claimed; report; certificate }
              else Error (Error.Certification_failed { certificate })
            with e -> Error (Error.Internal (Printexc.to_string e))))))
