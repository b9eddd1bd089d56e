(* qbpart — command-line front end.

   Subcommands:
     generate   write a synthetic netlist in the textual format
     stats      print circuit statistics for a netlist file
     solve      partition a netlist onto a grid (qbp | gfm | gkl)
     eval       evaluate an assignment produced by solve
     checkpoint inspect a crash-safety checkpoint file
     tables     regenerate the paper's Tables I-III (also see bench/)

   Exit codes (see also the RESILIENCE section of README.md):
     0    success
     123  runtime failure reported as an error message: unreadable or
          malformed input, no feasible start, infeasible instance,
          failed certification, unusable checkpoint
     124  command-line parse error (unknown subcommand, bad option,
          unknown algorithm, missing file argument) — and a solve cut
          short by SIGINT/SIGTERM, which still writes the final
          checkpoint and emits its best-so-far feasible assignment
     125  unexpected internal error *)

module Rng = Qbpart_netlist.Rng
module Netlist = Qbpart_netlist.Netlist
module Generator = Qbpart_netlist.Generator
module Parser = Qbpart_netlist.Parser
module Printer = Qbpart_netlist.Printer
module Scan = Qbpart_netlist.Scan
module Stats = Qbpart_netlist.Stats
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Evaluate = Qbpart_partition.Evaluate
module Problem = Qbpart_core.Problem
module Gfm = Qbpart_baselines.Gfm
module Gkl = Qbpart_baselines.Gkl
module Deadline = Qbpart_engine.Deadline
module Signals = Qbpart_engine.Signals
module Engine = Qbpart_engine.Engine
module Checkpoint = Qbpart_engine.Checkpoint
module Certify = Qbpart_core.Certify
module Experiments = Qbpart_experiments
module Sproto = Qbpart_server.Protocol
module Scheduler = Qbpart_server.Scheduler

open Cmdliner

(* Runtime failures reach [Cmd.eval_result] as [Error message]: it
   prints the message and exits 123, and cmdliner's own misuse errors
   (an unknown option or subcommand, a missing positional), which it
   reports as term errors, keep the default 124.  With
   [Term.term_result] the two shared one exit code. *)
let runtime_result t = Term.(const (Result.map_error (fun (`Msg m) -> m)) $ t)

let ( let* ) = Result.bind
let msgf fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt

let load_netlist path =
  match Parser.parse_file path with
  | Ok nl -> Ok nl
  | Error e -> msgf "%s: %s" path (Parser.file_error_to_string e)

let emit_assignment nl topo assignment out =
  let emit ppf =
    Array.iteri
      (fun j i ->
        Format.fprintf ppf "%s %s@."
          (Qbpart_netlist.Component.name (Netlist.component nl j))
          (Topology.name topo i))
      assignment
  in
  match out with
  | None ->
    emit Format.std_formatter;
    Ok ()
  | Some path -> (
    match open_out path with
    | exception Sys_error m -> Error (`Msg m)
    | oc ->
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          emit (Format.formatter_of_out_channel oc));
      Format.eprintf "wrote %s@." path;
      Ok ())

(* An assignment file is one "<component> <partition>" line per
   component, the partition by name or index, in the line grammar of
   every other qbpart input ([Scan]: comments, tabs, CRLF). *)
let parse_assignment nl topo path =
  let by_name = Hashtbl.create 16 in
  for i = 0 to Topology.m topo - 1 do
    Hashtbl.replace by_name (Topology.name topo i) i
  done;
  let parse text =
    let assignment = Array.make (Netlist.n nl) (-1) in
    let sc = Scan.of_string text in
    match
      while Scan.next sc do
        match Scan.count sc with
        | 0 -> ()
        | 2 ->
          let comp = Scan.token sc 0 and slot = Scan.token sc 1 in
          let j =
            match Netlist.find_by_name nl comp with
            | Some j -> j
            | None -> Scan.fail sc "unknown component %S" comp
          in
          if assignment.(j) >= 0 then Scan.fail sc "duplicate component %S" comp;
          assignment.(j) <-
            (match Hashtbl.find_opt by_name slot with
            | Some i -> i
            | None -> (
              match int_of_string_opt slot with
              | Some i when i >= 0 && i < Topology.m topo -> i
              | _ -> Scan.fail sc "unknown partition %S" slot))
        | _ -> Scan.fail sc "bad assignment line %S" (Scan.line_text sc)
      done
    with
    | () -> Ok assignment
    | exception Scan.Fail e -> Error e
  in
  match Scan.parse_file parse path with
  | Error e -> msgf "%s: %s" path (Scan.file_error_to_string e)
  | Ok assignment -> (
    match Array.find_index (fun i -> i < 0) assignment with
    | Some j ->
      msgf "%s: component %S unassigned" path
        (Qbpart_netlist.Component.name (Netlist.component nl j))
    | None -> Ok assignment)


(* --- generate ------------------------------------------------------ *)

let generate_cmd =
  let write_netlist out nl =
    match out with
    | None ->
      print_string (Printer.to_string nl);
      Ok ()
    | Some path -> (
      match Printer.to_file path nl with
      | () ->
        Printf.printf "wrote %s: %d components, %.0f interconnections\n" path (Netlist.n nl)
          (Netlist.total_wire_weight nl);
        Ok ()
      | exception Sys_error m -> Error (`Msg m))
  in
  let run n wires seed out circuit degree density locality clusters jobs timing_out
      reference_out =
    let* () =
      match n with Some n when n < 0 -> msgf "--components must be >= 0" | _ -> Ok ()
    in
    let* () =
      match wires with Some w when w < 0 -> msgf "--wires must be >= 0" | _ -> Ok ()
    in
    let* () = if jobs < 0 then msgf "--jobs must be >= 0" else Ok () in
    let synthetic =
      circuit <> None || degree <> None || density <> None || locality <> None
      || clusters <> None || timing_out <> None || reference_out <> None
    in
    if not synthetic then begin
      let n = Option.value n ~default:100 in
      let wires = Option.value wires ~default:500 in
      let seed = Option.value seed ~default:1 in
      let rng = Rng.create seed in
      let nl = Generator.generate rng (Generator.default_params ~n ~wires) in
      write_netlist out nl
    end
    else begin
      let* () =
        if wires <> None then
          msgf "synthetic circuits size wiring by --degree, not --wires"
        else Ok ()
      in
      let* base =
        match circuit with
        | None ->
          Ok
            (Experiments.Synth.default ~name:"custom"
               ~n:(Option.value n ~default:10_000)
               ~seed:(Option.value seed ~default:1))
        | Some name -> (
          match Experiments.Synth.find name with
          | Some p -> Ok p
          | None ->
            msgf "unknown circuit %S (known: %s)" name
              (String.concat ", " Experiments.Synth.names))
      in
      let p =
        let open Experiments.Synth in
        let p = base in
        let p = match n with Some n -> { p with n } | None -> p in
        let p = match seed with Some seed -> { p with seed } | None -> p in
        let p = match degree with Some avg_degree -> { p with avg_degree } | None -> p in
        let p =
          match density with Some timing_density -> { p with timing_density } | None -> p
        in
        let p = match locality with Some locality -> { p with locality } | None -> p in
        match clusters with Some clusters -> { p with clusters } | None -> p
      in
      let pool =
        if jobs > 1 then Some (Qbpart_pool.Dompool.create ~domains:jobs) else None
      in
      let finally () = Option.iter Qbpart_pool.Dompool.shutdown pool in
      let* inst =
        match Experiments.Synth.build ?pool p with
        | inst ->
          finally ();
          Ok inst
        | exception Invalid_argument m ->
          finally ();
          Error (`Msg m)
      in
      let nl = inst.Experiments.Circuits.netlist in
      let* () = write_netlist out nl in
      let* () =
        match timing_out with
        | None -> Ok ()
        | Some path -> (
          match
            Qbpart_timing.Constraints_io.to_file nl inst.Experiments.Circuits.constraints
              path
          with
          | () ->
            Printf.printf "wrote %s: %d directed timing budgets\n" path
              (Constraints.count inst.Experiments.Circuits.constraints);
            Ok ()
          | exception Sys_error m -> Error (`Msg m))
      in
      match reference_out with
      | None -> Ok ()
      | Some path ->
        emit_assignment nl inst.Experiments.Circuits.topology
          inst.Experiments.Circuits.reference (Some path)
    end
  in
  let n =
    Arg.(value & opt (some int) None & info [ "n"; "components" ]
           ~doc:"Component count (default 100, or 10000 for synthetic circuits).")
  in
  let wires =
    Arg.(value & opt (some int) None & info [ "w"; "wires" ]
           ~doc:"Total interconnections (default 500; plain netlists only).")
  in
  let seed = Arg.(value & opt (some int) None & info [ "seed" ] ~doc:"Generator seed.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (stdout if omitted).")
  in
  let circuit =
    Arg.(value & opt (some string) None & info [ "circuit" ] ~docv:"NAME"
           ~doc:"Build a synthetic frontier instance (synth10k, synth30k, synth100k) \
                 with its planted timing constraints; knobs below override its \
                 parameters.")
  in
  let degree =
    Arg.(value & opt (some float) None & info [ "degree" ]
           ~doc:"Average interconnections per component (synthetic circuits; wires = \
                 n * degree / 2).")
  in
  let density =
    Arg.(value & opt (some float) None & info [ "timing-density" ]
           ~doc:"Directed timing budgets per component (synthetic circuits).")
  in
  let locality =
    Arg.(value & opt (some float) None & info [ "locality" ]
           ~doc:"Probability a wire stays inside its hidden cluster, in [0,1].")
  in
  let clusters =
    Arg.(value & opt (some int) None & info [ "clusters" ]
           ~doc:"Hidden cluster count; 0 = one per ~500 components.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "j"; "jobs" ]
           ~doc:"Domains for the parallel adjacency build on large instances; the \
                 generated circuit is identical for every value.")
  in
  let timing_out =
    Arg.(value & opt (some string) None & info [ "timing-output" ] ~docv:"FILE"
           ~doc:"Also write the planted timing budgets (synthetic circuits; feed back \
                 with solve --timing).")
  in
  let reference_out =
    Arg.(value & opt (some string) None & info [ "reference-output" ] ~docv:"FILE"
           ~doc:"Also write the planted feasible reference assignment (synthetic \
                 circuits; feed back with solve --initial to warm-start at scale).")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic netlist")
    Term.(
      runtime_result
        (const run $ n $ wires $ seed $ out $ circuit $ degree $ density $ locality
       $ clusters $ jobs $ timing_out $ reference_out))

(* --- stats --------------------------------------------------------- *)

let stats_cmd =
  let run path =
    let* nl = load_netlist path in
    Format.printf "%a@." Stats.pp (Stats.of_netlist ~name:(Filename.basename path) nl);
    Ok ()
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST") in
  Cmd.v (Cmd.info "stats" ~doc:"Print circuit statistics") Term.(runtime_result (const run $ path))

(* --- the solve spec ------------------------------------------------ *)

(* [Protocol.submit] is the one description of a solve, and [Scheduler]
   says what it means: its validity rule, its grid, its deadline and its
   engine configuration.  [solve], [submit] and [session open] build it
   from the same flags, whose defaults are the protocol's. *)
let spec_default = Sproto.default_submit ~netlist:(Sproto.Inline "")

let check_spec spec = Result.map_error (fun (_, m) -> `Msg m) (Scheduler.check_spec spec)

(* The spec term names its input files by path; a command reads them
   itself or ships them to the daemon. *)
let path_of = function Sproto.File path -> path | Sproto.Inline _ -> invalid_arg "path_of"

let load_constraints nl = function
  | None -> Ok None
  | Some path -> (
    match Qbpart_timing.Constraints_io.parse_file nl path with
    | Ok c -> Ok (Some c)
    | Error e -> msgf "%s: %s" path (Qbpart_timing.Constraints_io.file_error_to_string e))

(* The instance a spec names, read locally: netlist, budgets and grid. *)
let load_spec (spec : Sproto.submit) =
  let path = path_of spec.netlist in
  let* nl = load_netlist path in
  let* constraints = load_constraints nl (Option.map path_of spec.timing) in
  match Scheduler.topology_of_spec spec nl with
  | topo -> Ok (nl, constraints, topo)
  | exception Invalid_argument m -> msgf "%s: %s" path m

(* Durations: "2" = "2s" = seconds, "250ms" = milliseconds. *)
let duration_conv =
  let parse s =
    let of_float scale str =
      match float_of_string_opt str with
      | Some x when Float.is_finite x && x >= 0.0 -> Ok (x *. scale)
      | _ -> msgf "invalid duration %S (expected e.g. 2, 1.5s or 250ms)" s
    in
    let n = String.length s in
    if n >= 2 && String.sub s (n - 2) 2 = "ms" then of_float 0.001 (String.sub s 0 (n - 2))
    else if n >= 1 && s.[n - 1] = 's' then of_float 1.0 (String.sub s 0 (n - 1))
    else of_float 1.0 s
  in
  let print ppf secs = Format.fprintf ppf "%gs" secs in
  Arg.conv (parse, print)

(* The instance half of the spec — netlist, budgets and grid — which is
   all [eval] needs. *)
let instance_term =
  let make netlist timing rows cols slack =
    let file path = Sproto.File path in
    { spec_default with netlist = file netlist; timing = Option.map file timing; rows; cols; slack }
  in
  let netlist = Arg.(required & pos 0 (some file) None & info [] ~docv:"NETLIST") in
  let timing =
    Arg.(value & opt (some file) None & info [ "t"; "timing" ] ~docv:"BUDGETS"
           ~doc:"Timing-budget file ($(b,budget)/$(b,budget_sym) lines).")
  in
  let rows = Arg.(value & opt int spec_default.rows & info [ "rows" ] ~doc:"Grid rows.") in
  let cols = Arg.(value & opt int spec_default.cols & info [ "cols" ] ~doc:"Grid cols.") in
  let slack =
    Arg.(value & opt float spec_default.slack & info [ "slack" ]
           ~doc:"Capacity slack factor: each partition holds the total component size \
                 divided by the partition count, times this.")
  in
  Term.(const make $ netlist $ timing $ rows $ cols $ slack)

(* The whole spec: the instance plus the search budget. *)
let spec_term =
  let make (inst : Sproto.submit) iterations seed starts evolve generations pool_size deadline_s =
    { inst with iterations; seed; starts; evolve; generations; pool_size; deadline_s }
  in
  let iterations =
    Arg.(value & opt int spec_default.iterations & info [ "iterations" ]
           ~doc:"QBP iterations per start.")
  in
  let seed = Arg.(value & opt int spec_default.seed & info [ "seed" ] ~doc:"Random seed.") in
  let starts =
    Arg.(value & opt int spec_default.starts & info [ "starts" ]
           ~doc:"QBP starts with distinct seeds: independent starts (the multi-start \
                 portfolio), or with --evolve the total budget across --generations; \
                 the best solution wins deterministically.")
  in
  let evolve =
    Arg.(value & flag & info [ "evolve" ]
           ~doc:"Run the cooperating elite-pool population search: the --starts \
                 budget is split across --generations, later generations are \
                 warm-started from crossover / path-relinking / \
                 recursive-bipartition recombinations of a diverse elite pool, \
                 and the champion is reduced deterministically (same seed and \
                 budget, same answer at any --jobs).  Under $(b,solve) it implies \
                 the $(b,--fallback) ladder.")
  in
  let generations =
    Arg.(value & opt int spec_default.generations & info [ "generations" ]
           ~doc:"Evolve generations; 1 makes --evolve the plain multi-start portfolio \
                 (reported as such, and resumable start by start).  Used only with \
                 --evolve, but must be >= 1.")
  in
  let pool_size =
    Arg.(value & opt int spec_default.pool_size & info [ "pool-size" ]
           ~doc:"Elite-pool capacity for --evolve (>= 1).")
  in
  let deadline =
    Arg.(value & opt (some duration_conv) spec_default.deadline_s & info [ "deadline" ]
           ~docv:"DURATION"
           ~doc:"Wall-clock budget (e.g. $(b,2s), $(b,250ms)) for the solve: per job \
                 under $(b,submit), per solve in a session.  The solver returns its \
                 best-so-far feasible solution when the budget expires.")
  in
  Term.(
    const make $ instance_term $ iterations $ seed $ starts $ evolve $ generations $ pool_size
    $ deadline)

(* --- solve --------------------------------------------------------- *)

let algorithm_conv = Arg.enum [ ("qbp", `Qbp); ("gfm", `Gfm); ("gkl", `Gkl) ]

let solve_cmd =
  let run (spec : Sproto.submit) algorithm fallback jobs inner_jobs retries checkpoint every
      resume initial out =
    let* () = check_spec spec in
    let* () = if jobs < 0 then msgf "--jobs must be >= 1 (or 0 for auto)" else Ok () in
    let* () = if retries < 0 then msgf "--retries must be >= 0" else Ok () in
    let* () = if inner_jobs < 0 then msgf "--inner-jobs must be >= 1 (or 0 for auto)" else Ok () in
    let* () =
      match algorithm with
      | `Qbp -> Ok ()
      | `Gfm | `Gkl ->
        if spec.starts > 1 then
          msgf "--starts drives the multi-start QBP portfolio; use it with -a qbp"
        else if spec.evolve then msgf "--evolve drives the QBP population search; use it with -a qbp"
        else if checkpoint <> None || resume <> None then
          msgf "--checkpoint/--resume run the crash-safe engine; use them with -a qbp"
        else if fallback then
          msgf "--fallback drives the fixed qbp -> gkl -> gfm degradation ladder; use it with -a qbp"
        else Ok ()
    in
    let* nl, constraints, topo = load_spec spec in
    let* initial =
      match initial with
      | None -> Ok None
      | Some file -> Result.map (fun a -> Some (file, a)) (parse_assignment nl topo file)
    in
    let* resumed =
      match resume with
      | None -> Ok None
      | Some path -> (
        match Checkpoint.load ~path with
        | Ok cp -> Ok (Some cp)
        | Error e -> msgf "%s: %s" path (Checkpoint.error_to_string e))
    in
    (* [--deadline] is the total budget of the run across crashes: a
       resumed solve only gets what the checkpointed run left unspent *)
    let deadline =
      let spent = match resumed with Some cp -> cp.Checkpoint.elapsed | None -> 0.0 in
      Scheduler.deadline_of_spec
        {
          spec with
          deadline_s = Option.map (fun secs -> Float.max 0.0 (secs -. spent)) spec.deadline_s;
        }
    in
    (* SIGINT/SIGTERM: cooperative cancellation through the shared
       deadline, then the normal best-so-far path runs to the end —
       final checkpoint, report, assignment — and exits 124. *)
    let interrupted = ref false in
    Signals.on_terminate (fun _ ->
        interrupted := true;
        Deadline.cancel deadline);
    let t0 = Deadline.elapsed deadline in
    let* start_cost, final =
      match algorithm with
      | `Qbp -> (
        (* jobs, inner domains and retries size the process running the
           solve, so they are flags of this command, not fields of the
           spec.  The ladder flags keep the engine's penalty rounds and
           stall guard; without them every start is one plain Burkard
           round that no stall cuts short, so a completed search leaves
           no fallback rung to run. *)
        let config =
          {
            (Scheduler.engine_config spec) with
            jobs = (if jobs = 0 then None else Some jobs);
            inner_jobs;
            retries;
          }
        in
        let config =
          if fallback || spec.evolve || checkpoint <> None || resume <> None then config
          else { config with max_rounds = 1; stall_patience = 0 }
        in
        let problem = Problem.make ?constraints nl topo in
        let last_cp = ref None in
        let last_write = ref Float.neg_infinity in
        let write_cp cp =
          match checkpoint with
          | None -> ()
          | Some path -> (
            match Checkpoint.save ~path cp with
            | Ok () -> last_write := Unix.gettimeofday ()
            | Error e -> Format.eprintf "checkpoint: %s@." (Checkpoint.error_to_string e))
        in
        let on_checkpoint cp =
          last_cp := Some cp;
          (* first emission (the secured safety net) is written
             immediately so even an early kill leaves a resumable file;
             after that, on the --checkpoint-every cadence *)
          if !last_write = Float.neg_infinity || Unix.gettimeofday () -. !last_write >= every
          then write_cp cp
        in
        let on_checkpoint = if checkpoint = None then None else Some on_checkpoint in
        match
          Engine.solve ~config ~deadline ?on_checkpoint ?resume:resumed
            ?initial:(Option.map snd initial) problem
        with
        | Error e -> Error (`Msg (Engine.Error.to_string e))
        | Ok { Engine.assignment; report; certificate; _ } ->
          Format.eprintf "%a@." Engine.Report.pp report;
          Format.eprintf "%a@." Certify.pp certificate;
          (* the last emitted state is always persisted, cadence aside:
             after a clean run the file reflects the completed solve *)
          Option.iter write_cp !last_cp;
          Ok (report.Engine.Report.initial_cost, assignment))
      | `Gfm | `Gkl ->
        (* without --initial, GFM and GKL start where QBP does: from the
           engine's safety net *)
        let* start =
          match initial with
          | Some (file, a) ->
            if not (Evaluate.capacity_feasible nl topo a) then
              msgf "%s: initial assignment violates capacity" file
            else if
              not
                (match constraints with
                | None -> true
                | Some c -> Qbpart_timing.Check.feasible c topo ~assignment:a)
            then msgf "%s: initial assignment violates timing budgets" file
            else Ok a
          | None ->
            Engine.greedy_start ?constraints ~seed:spec.seed nl topo
            |> Result.map_error (fun e -> `Msg (Engine.Error.to_string e))
        in
        let should_stop = Deadline.should_stop deadline in
        let final =
          if algorithm = `Gfm then
            (Gfm.solve ?constraints ~should_stop nl topo ~initial:start).Gfm.assignment
          else (Gkl.solve ?constraints ~should_stop nl topo ~initial:start).Gkl.assignment
        in
        Ok (Evaluate.wirelength nl topo start, final)
    in
    let cost = Evaluate.wirelength nl topo final in
    Format.eprintf "start %.0f -> final %.0f (-%.1f%%) in %.3fs%s@." start_cost cost
      (100.0 *. (start_cost -. cost) /. start_cost)
      (Deadline.elapsed deadline -. t0)
      (if Deadline.expired deadline then " (deadline expired)" else "");
    Format.eprintf "%a@."
      Qbpart_partition.Metrics.pp
      (Qbpart_partition.Metrics.compute ?constraints nl topo final);
    if !interrupted then begin
      Format.eprintf "interrupted: best-so-far feasible assignment follows@.";
      Result.iter_error (fun (`Msg m) -> prerr_endline m) (emit_assignment nl topo final out);
      exit 124
    end;
    emit_assignment nl topo final out
  in
  let algorithm =
    Arg.(value & opt algorithm_conv `Qbp & info [ "a"; "algorithm" ] ~doc:"qbp, gfm or gkl.")
  in
  let fallback =
    Arg.(value & flag & info [ "fallback" ]
           ~doc:"Run the whole degradation ladder: QBP under penalty-continuation \
                 rounds and a stall guard, falling back to GKL, then GFM, then the \
                 safety net on timeout, stall or failure.  Without it, $(b,-a qbp) runs \
                 one plain Burkard round per start through the same engine, which \
                 falls back only on a crash or when no start finds a feasible answer; \
                 either way the stage report and certificate go to stderr.")
  in
  let jobs =
    Arg.(value & opt int 0 & info [ "j"; "jobs" ]
           ~doc:"Domains running the QBP starts in parallel; 0 (default) picks \
                 the machine's recommended domain count. Explicit values above that \
                 count are honoured with a warning (oversubscription only slows \
                 things down). With the default --inner-jobs, the starts' inner \
                 domains come out of this count too. The result is identical for \
                 every value.")
  in
  let inner_jobs =
    Arg.(value & opt int 0 & info [ "inner-jobs" ]
           ~doc:"Domains per running start: they run the criterion legs of MTHG in \
                 STEPs 4 and 6 side by side, and STEP 3's row refresh when many rows \
                 changed. 0 (default) shares the --jobs domains among the starts \
                 that run at once, at most 2 per start; the box runs up to --jobs x \
                 --inner-jobs domains. The result is identical for every value.")
  in
  let retries =
    Arg.(value & opt int 1 & info [ "retries" ]
           ~doc:"Extra supervised attempts for a QBP start that crashes (also when \
                 --starts is 1), each with a deterministically re-derived seed. The \
                 run fails only if every start fails.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Write crash-safety checkpoints here (atomic write-to-temp + fsync + \
                 rename): once after the safety net is secured, then on the \
                 $(b,--checkpoint-every) cadence, and finally on SIGINT/SIGTERM. \
                 Implies the $(b,--fallback) ladder.")
  in
  let every =
    Arg.(value & opt duration_conv 10.0 & info [ "checkpoint-every" ] ~docv:"DURATION"
           ~doc:"Minimum interval between cadence checkpoint writes (default 10s).")
  in
  let resume =
    Arg.(value & opt (some file) None & info [ "resume" ] ~docv:"FILE"
           ~doc:"Resume from a checkpoint: validates it against this instance \
                 (structural hash), warm-starts from its incumbent, skips the starts \
                 a one-generation run completed, and continues on the deadline \
                 budget the checkpointed run left unspent. Implies the \
                 $(b,--fallback) ladder.")
  in
  let initial =
    Arg.(value & opt (some file) None & info [ "initial" ] ~docv:"FILE"
           ~doc:"Warm-start from this assignment (same format solve emits; e.g. a \
                 synthetic circuit's planted reference from generate \
                 --reference-output). $(b,-a qbp) accepts any in-range assignment, and \
                 a feasible one is its safety net; $(b,-a gfm) and $(b,-a gkl) require \
                 it feasible. Without it every algorithm starts from the engine's \
                 safety net.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the assignment here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Partition a netlist onto a grid")
    Term.(
      runtime_result
        (const run $ spec_term $ algorithm $ fallback $ jobs $ inner_jobs $ retries
       $ checkpoint $ every $ resume $ initial $ out))

(* --- eval ---------------------------------------------------------- *)

let eval_cmd =
  let run spec assignment_path =
    let* () = check_spec spec in
    let* nl, constraints, topo = load_spec spec in
    let* assignment = parse_assignment nl topo assignment_path in
    Format.printf "%a"
      Qbpart_partition.Metrics.pp
      (Qbpart_partition.Metrics.compute ?constraints nl topo assignment);
    Ok ()
  in
  let assignment = Arg.(required & pos 1 (some file) None & info [] ~docv:"ASSIGNMENT") in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate an assignment produced by solve")
    Term.(runtime_result (const run $ instance_term $ assignment))

(* --- checkpoint ---------------------------------------------------- *)

let checkpoint_cmd =
  let run path =
    match Checkpoint.load ~path with
    | Error e -> Error (`Msg (Checkpoint.error_to_string e))
    | Ok cp ->
      Printf.printf "version        %d\n" Checkpoint.version;
      Printf.printf "instance hash  %Lx\n" cp.Checkpoint.instance_hash;
      Printf.printf "base seed      %d\n" cp.Checkpoint.base_seed;
      Printf.printf "elapsed        %.3fs\n" cp.Checkpoint.elapsed;
      Printf.printf "incumbent cost %.17g\n" cp.Checkpoint.incumbent_cost;
      Printf.printf "components     %d\n" (Array.length cp.Checkpoint.incumbent);
      Printf.printf "starts done    %d\n" (List.length cp.Checkpoint.starts);
      List.iter
        (fun s ->
          Printf.printf "  start %d: seed %d, %d attempt%s%s%s\n" s.Checkpoint.start
            s.Checkpoint.seed s.Checkpoint.attempts
            (if s.Checkpoint.attempts = 1 then "" else "s")
            (match s.Checkpoint.feasible_cost with
            | Some c -> Printf.sprintf ", feasible %.17g" c
            | None -> "")
            (match s.Checkpoint.failure with
            | Some msg -> Printf.sprintf ", FAILED: %s" msg
            | None -> ""))
        cp.Checkpoint.starts;
      Ok ()
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"CHECKPOINT") in
  Cmd.v
    (Cmd.info "checkpoint" ~doc:"Inspect a crash-safety checkpoint file")
    Term.(runtime_result (const run $ path))

(* --- service client: submit / status / cancel / metrics ------------ *)

module Sclient = Qbpart_server.Client

let socket_arg =
  Arg.(value & opt string "qbpartd.sock" & info [ "socket" ] ~docv:"ADDR"
         ~doc:"The qbpartd address: a Unix-domain socket path, or $(b,tcp:HOST:PORT) for \
               a daemon or router listening with $(b,--tcp).")

let connect_timeout_arg =
  Arg.(value & opt float Sclient.default_connect_timeout
       & info [ "connect-timeout" ] ~docv:"SECONDS"
           ~doc:"Give up connecting after this long instead of hanging on a dead peer.")

let read_timeout_arg =
  Arg.(value & opt float Sclient.default_read_timeout
       & info [ "read-timeout" ] ~docv:"SECONDS"
           ~doc:"Give up after this long waiting for a response frame; 0 disables the \
                 deadline.")

let retries_arg =
  Arg.(value & opt int Sclient.default_backoff.Sclient.attempts
       & info [ "retries" ] ~docv:"N"
           ~doc:"Total attempts (with jittered exponential backoff) before giving up on \
                 a dead, overloaded, or draining service.")

let addr_of socket =
  match Sclient.addr_of_string socket with Error m -> Error (`Msg m) | Ok a -> Ok a

let with_client ?connect_timeout ?read_timeout socket f =
  let* addr = addr_of socket in
  match Sclient.connect ?connect_timeout ?read_timeout addr with
  | Error m -> Error (`Msg m)
  | Ok c -> Fun.protect ~finally:(fun () -> Sclient.close c) (fun () -> f c)

let server_error code message =
  msgf "server %s: %s" (Sproto.error_code_to_string code) message

let describe_job ppf (v : Sproto.job_view) =
  Format.fprintf ppf "job %s: %s" v.Sproto.id (Sproto.job_state_to_string v.Sproto.state);
  (match v.Sproto.cost with Some c -> Format.fprintf ppf " cost=%.1f" c | None -> ());
  (match v.Sproto.certified with
  | Some true -> Format.fprintf ppf " certified"
  | Some false -> Format.fprintf ppf " UNCERTIFIED"
  | None -> ());
  if v.Sproto.interrupted then Format.fprintf ppf " (interrupted)";
  (match v.Sproto.winner with Some w -> Format.fprintf ppf " winner=%s" w | None -> ());
  (match v.Sproto.error with Some e -> Format.fprintf ppf " error=%S" e | None -> ());
  (match v.Sproto.checkpoint with
  | Some p -> Format.fprintf ppf "@.  checkpoint %s" p
  | None -> ());
  List.iter (fun s -> Format.fprintf ppf "@.  %s" s) v.Sproto.stages

let finish_waited ~nl ~topo ~out (v : Sproto.job_view) =
  Format.eprintf "%a@." describe_job v;
  match v.Sproto.state with
  | Sproto.Done -> (
    let* assignment =
      match v.Sproto.assignment with
      | Some a -> Ok a
      | None -> msgf "job %s finished without an assignment" v.Sproto.id
    in
    let* () = emit_assignment nl topo assignment out in
    match v.Sproto.certified with
    | Some true -> Ok ()
    | _ -> msgf "job %s: result failed independent certification" v.Sproto.id)
  | Sproto.Failed ->
    msgf "job %s failed: %s" v.Sproto.id (Option.value ~default:"unknown error" v.Sproto.error)
  | Sproto.Cancelled -> msgf "job %s was cancelled" v.Sproto.id
  | Sproto.Queued | Sproto.Running -> msgf "job %s still in flight" v.Sproto.id

(* The one way a spec reaches the daemon.  It is checked and its files
   parsed locally first, so a bad flag or a malformed file fails fast
   with the usual diagnosis instead of a round trip; then the files go
   inline, or with --by-path as absolute paths the daemon reads itself. *)
let ship ~by_path (spec : Sproto.submit) =
  let* () = check_spec spec in
  let* nl, _, topo = load_spec spec in
  let send what source =
    let path = path_of source in
    if by_path then
      let abs = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
      Ok (Sproto.File abs)
    else
      match In_channel.with_open_bin path In_channel.input_all with
      | text -> Ok (Sproto.Inline text)
      | exception Sys_error m -> msgf "%s %s: %s" what path m
  in
  let* netlist = send "netlist" spec.netlist in
  let* timing =
    match spec.timing with
    | None -> Ok None
    | Some source -> Result.map Option.some (send "timing budgets" source)
  in
  Ok (nl, topo, { spec with netlist; timing })

let by_path_arg =
  Arg.(value & flag & info [ "by-path" ]
         ~doc:"Send file paths for the daemon to read, instead of inlining file \
               contents into the request (daemon and client must share a \
               filesystem).")

let submit_cmd =
  let run socket spec by_path label priority wait out connect_timeout read_timeout retries =
    let* nl, topo, spec = ship ~by_path spec in
    let spec = { spec with Sproto.label; priority } in
    let* addr = addr_of socket in
    (* Submit through the retrying one-shot path: transport failures and
       overloaded/draining/unavailable refusals back off and resubmit.
       Resubmission is idempotent by instance hash against a fleet with
       a replicated checkpoint store, so retrying is always safe. *)
    let backoff = { Sclient.default_backoff with Sclient.attempts = max 1 retries } in
    match
      Sclient.request ~backoff ~connect_timeout ~read_timeout addr (Sproto.Submit spec)
    with
    | Error m -> Error (`Msg m)
    | Ok (Sproto.Error { code; message }) -> server_error code message
    | Ok (Sproto.Submitted { job; queue_depth }) ->
      if not wait then begin
        Format.eprintf "submitted %s (queue depth %d)@." job queue_depth;
        print_endline job;
        Ok ()
      end
      else begin
        Format.eprintf "submitted %s; waiting@." job;
        with_client ~connect_timeout ~read_timeout socket (fun c ->
            match Sclient.wait c job with
            | Error m -> Error (`Msg m)
            | Ok v -> finish_waited ~nl ~topo ~out v)
      end
    | Ok other ->
      msgf "unexpected response: %s" (Format.asprintf "%a" Sproto.pp_response other)
  in
  let label =
    Arg.(value & opt (some string) None & info [ "label" ] ~docv:"TEXT"
           ~doc:"Free-form tag echoed back in status views.")
  in
  let priority =
    Arg.(value
         & opt (enum [ ("interactive", Sproto.Interactive); ("batch", Sproto.Batch) ])
             spec_default.priority
         & info [ "priority" ] ~docv:"CLASS"
             ~doc:"Admission class: $(b,interactive) jobs dequeue with a higher weight \
                   and, at capacity, shed the newest queued $(b,batch) job instead of \
                   being refused.")
  in
  let wait =
    Arg.(value & flag & info [ "wait" ]
           ~doc:"Poll until the job finishes, then emit the assignment (like \
                 $(b,solve)) and exit 0 only for a certified result.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"With $(b,--wait): write the assignment here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a partitioning job to a qbpartd daemon")
    Term.(
      runtime_result
        (const run $ socket_arg $ spec_term $ by_path_arg $ label $ priority $ wait $ out
       $ connect_timeout_arg $ read_timeout_arg $ retries_arg))

let status_line (v : Sproto.job_view) =
  match v.Sproto.state with
  | Sproto.Done ->
    Printf.sprintf "%s done %s%s" v.Sproto.id
      (match v.Sproto.certified with Some true -> "certified" | _ -> "UNCERTIFIED")
      (if v.Sproto.interrupted then " (interrupted)" else "")
  | Sproto.Failed ->
    Printf.sprintf "%s failed: %s" v.Sproto.id
      (Option.value ~default:"unknown error" v.Sproto.error)
  | Sproto.Cancelled ->
    Printf.sprintf "%s cancelled%s" v.Sproto.id
      (match v.Sproto.checkpoint with
      | Some p -> Printf.sprintf " (interrupted, checkpoint %s)" p
      | None -> "")
  | (Sproto.Queued | Sproto.Running) as s ->
    Printf.sprintf "%s %s" v.Sproto.id (Sproto.job_state_to_string s)

(* Watch with reconnection: one streaming session per connection; a
   lost connection backs off and reattaches, resuming from the last
   seen event seq (the server replays nothing at or below [since - 1]).
   [retries] consecutive sessions that deliver no event give up —
   permanent service loss is exit code 123, not a hang. *)
let watch_job ~connect_timeout ~retries socket job =
  let* addr = addr_of socket in
  let last_seen = ref (-1) in
  let delay k = Float.min 2.0 (0.1 *. (2.0 ** float_of_int k)) in
  let retries = max 1 retries in
  let rec session failures =
    let progressed = ref false in
    let outcome =
      (* read deadline off: a quiet stream just means a long solve *)
      match Sclient.connect ~connect_timeout ~read_timeout:0.0 addr with
      | Error m -> `Lost m
      | Ok c ->
        Fun.protect
          ~finally:(fun () -> Sclient.close c)
          (fun () ->
            match Sclient.call c (Sproto.Events { job; since = !last_seen + 1 }) with
            | Error m -> `Lost m
            | Ok first ->
              let rec follow = function
                | Sproto.Error { code; message } -> `Server (code, message)
                | Sproto.Event { seq; state; detail; _ } -> (
                  progressed := true;
                  last_seen := max !last_seen seq;
                  Format.eprintf "event %d: %s%s@." seq
                    (Sproto.job_state_to_string state)
                    (match detail with Some d -> " (" ^ d ^ ")" | None -> "");
                  match Sclient.read_response c with
                  | Error m -> `Lost m
                  | Ok next -> follow next)
                | Sproto.Job v ->
                  Format.eprintf "%a@." describe_job v;
                  print_endline (status_line v);
                  `Done
                | other ->
                  `Server
                    ( Sproto.Internal,
                      Format.asprintf "unexpected response: %a" Sproto.pp_response other )
              in
              follow first)
    in
    match outcome with
    | `Done -> Ok ()
    | `Server (code, message) -> server_error code message
    | `Lost m ->
      let failures = if !progressed then 1 else failures + 1 in
      if failures >= retries then
        msgf "watch %s: %s (gave up after %d attempts)" job m retries
      else begin
        Format.eprintf "watch: %s; reconnecting@." m;
        Unix.sleepf (delay (failures - 1));
        session failures
      end
  in
  session 0

let status_cmd =
  let run socket job watch connect_timeout read_timeout retries =
    if watch then watch_job ~connect_timeout ~retries socket job
    else
      with_client ~connect_timeout ~read_timeout socket (fun c ->
          match Sclient.call c (Sproto.Status job) with
          | Error m -> Error (`Msg m)
          | Ok (Sproto.Error { code; message }) -> server_error code message
          | Ok (Sproto.Job v) ->
            Format.eprintf "%a@." describe_job v;
            print_endline (status_line v);
            Ok ()
          | Ok other ->
            msgf "unexpected response: %s" (Format.asprintf "%a" Sproto.pp_response other))
  in
  let job = Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB") in
  let watch =
    Arg.(value & flag & info [ "watch" ]
           ~doc:"Stream state-change events until the job reaches a terminal state, \
                 reconnecting with backoff (and resuming from the last seen event) if \
                 the connection drops; $(b,--retries) consecutive dead sessions give \
                 up.")
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Query (or watch) a job on a qbpartd daemon")
    Term.(
      runtime_result
        (const run $ socket_arg $ job $ watch $ connect_timeout_arg $ read_timeout_arg
       $ retries_arg))

let cancel_cmd =
  let run socket job =
    with_client socket (fun c ->
        match Sclient.call c (Sproto.Cancel job) with
        | Error m -> Error (`Msg m)
        | Ok (Sproto.Error { code; message }) -> server_error code message
        | Ok (Sproto.Job v) ->
          (match v.Sproto.state with
          | Sproto.Cancelled -> Printf.printf "%s cancelled\n" v.Sproto.id
          | s -> Printf.printf "%s cancel requested (%s)\n" v.Sproto.id (Sproto.job_state_to_string s));
          Ok ()
        | Ok other ->
          msgf "unexpected response: %s" (Format.asprintf "%a" Sproto.pp_response other))
  in
  let job = Arg.(required & pos 0 (some string) None & info [] ~docv:"JOB") in
  Cmd.v
    (Cmd.info "cancel" ~doc:"Cancel a queued or running job on a qbpartd daemon")
    Term.(runtime_result (const run $ socket_arg $ job))

let metrics_cmd =
  let run socket =
    with_client socket (fun c ->
        match Sclient.call c Sproto.Metrics with
        | Error m -> Error (`Msg m)
        | Ok (Sproto.Error { code; message }) -> server_error code message
        | Ok (Sproto.Metrics_snapshot m) ->
          print_endline (Sproto.encode_response (Sproto.Metrics_snapshot m));
          Ok ()
        | Ok other ->
          msgf "unexpected response: %s" (Format.asprintf "%a" Sproto.pp_response other))
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Print a qbpartd daemon's metrics snapshot as JSON")
    Term.(runtime_result (const run $ socket_arg))

(* --- ECO sessions --------------------------------------------------- *)

let describe_eco ppf (v : Sproto.eco_view) =
  Format.fprintf ppf "session %s #%d: served %s, cost %.1f, %s (%.3fs, instance %s)"
    v.Sproto.eco_session v.Sproto.eco_seq v.Sproto.served v.Sproto.eco_cost
    (if v.Sproto.eco_certified then "certified" else "UNCERTIFIED")
    v.Sproto.eco_wall v.Sproto.eco_instance;
  List.iter (fun s -> Format.fprintf ppf "@.  %s" s) v.Sproto.eco_stages

(* stdout contract shared by open and eco: a status line, then the
   assignment; exit 0 only for a certified answer *)
let finish_eco (v : Sproto.eco_view) =
  Format.eprintf "%a@." describe_eco v;
  Printf.printf "%s #%d %s cost=%.1f %s\n" v.Sproto.eco_session v.Sproto.eco_seq
    v.Sproto.served v.Sproto.eco_cost
    (if v.Sproto.eco_certified then "certified" else "UNCERTIFIED");
  (match v.Sproto.eco_assignment with
  | Some a ->
    Printf.printf "assignment %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int a)))
  | None -> ());
  if v.Sproto.eco_certified then Ok ()
  else msgf "session %s: answer failed independent certification" v.Sproto.eco_session

let session_open_cmd =
  let run socket spec by_path connect_timeout read_timeout =
    let* _, _, spec = ship ~by_path spec in
    with_client ~connect_timeout ~read_timeout socket (fun c ->
        match Sclient.call c (Sproto.Session_open spec) with
        | Error m -> Error (`Msg m)
        | Ok (Sproto.Error { code; message }) -> server_error code message
        | Ok (Sproto.Eco_result v) -> finish_eco v
        | Ok other ->
          msgf "unexpected response: %s" (Format.asprintf "%a" Sproto.pp_response other))
  in
  Cmd.v
    (Cmd.info "open"
       ~doc:"Open an ECO session: solve the instance (resuming from a replicated \
             checkpoint when one matches) and pin it server-side for warm deltas")
    Term.(
      runtime_result
        (const run $ socket_arg $ spec_term $ by_path_arg $ connect_timeout_arg
       $ read_timeout_arg))

let session_close_cmd =
  let run socket session =
    with_client socket (fun c ->
        match Sclient.call c (Sproto.Session_close session) with
        | Error m -> Error (`Msg m)
        | Ok (Sproto.Error { code; message }) -> server_error code message
        | Ok (Sproto.Session_closed { session; checkpoint }) ->
          (match checkpoint with
          | Some p -> Printf.printf "%s closed (checkpoint %s)\n" session p
          | None -> Printf.printf "%s closed\n" session);
          Ok ()
        | Ok other ->
          msgf "unexpected response: %s" (Format.asprintf "%a" Sproto.pp_response other))
  in
  let session = Arg.(required & pos 0 (some string) None & info [] ~docv:"SESSION") in
  Cmd.v
    (Cmd.info "close"
       ~doc:"Close an ECO session, checkpointing its incumbent to the daemon's store")
    Term.(runtime_result (const run $ socket_arg $ session))

let session_cmd =
  Cmd.group
    (Cmd.info "session" ~doc:"Manage ECO delta sessions on a qbpartd daemon")
    [ session_open_cmd; session_close_cmd ]

let eco_cmd =
  let run socket session delta_path seq cold connect_timeout read_timeout =
    let* () = if seq < 1 then msgf "--seq must be >= 1" else Ok () in
    let* delta =
      match In_channel.with_open_bin delta_path In_channel.input_all with
      | text -> Ok text
      | exception Sys_error m -> msgf "delta %s: %s" delta_path m
    in
    with_client ~connect_timeout ~read_timeout socket (fun c ->
        match Sclient.call c (Sproto.Eco_submit { session; seq; delta; force_cold = cold }) with
        | Error m -> Error (`Msg m)
        | Ok (Sproto.Error { code; message }) -> server_error code message
        | Ok (Sproto.Eco_result v) -> finish_eco v
        | Ok other ->
          msgf "unexpected response: %s" (Format.asprintf "%a" Sproto.pp_response other))
  in
  let session = Arg.(required & pos 0 (some string) None & info [] ~docv:"SESSION") in
  let delta = Arg.(required & pos 1 (some file) None & info [] ~docv:"DELTA") in
  let seq =
    Arg.(value & opt int 1 & info [ "seq" ] ~docv:"N"
           ~doc:"Delta sequence number: exactly one past the session's last applied \
                 delta.  Re-sending the last value replays the cached answer; anything \
                 else is a $(b,stale_session) error naming the expected sequence.")
  in
  let cold =
    Arg.(value & flag & info [ "cold" ]
           ~doc:"Skip the warm-incumbent path and solve the edited instance from \
                 scratch (the baseline warm serving is benchmarked against).")
  in
  Cmd.v
    (Cmd.info "eco"
       ~doc:"Apply an engineering-change-order delta to an open session and print the \
             re-certified assignment")
    Term.(
      runtime_result
        (const run $ socket_arg $ session $ delta $ seq $ cold $ connect_timeout_arg
       $ read_timeout_arg))

(* --- tables -------------------------------------------------------- *)

let tables_cmd =
  let run quick stage_deadline =
    let instances =
      if quick then [ Experiments.Circuits.build (List.hd Experiments.Circuits.table1) ]
      else Experiments.Circuits.build_all ()
    in
    Experiments.Report.table1 Format.std_formatter instances;
    let rows2 = Experiments.Runner.run_suite ?stage_deadline ~with_timing:false instances in
    Experiments.Report.results ~title:"II. Without Timing Constraints:" Format.std_formatter
      rows2;
    let rows3 = Experiments.Runner.run_suite ?stage_deadline ~with_timing:true instances in
    Experiments.Report.results ~title:"III. With Timing Constraints:" Format.std_formatter rows3;
    Ok ()
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Only run ckta.") in
  let stage_deadline =
    Arg.(value & opt (some duration_conv) None & info [ "stage-deadline" ] ~docv:"DURATION"
           ~doc:"Per-solver wall-clock budget for each table cell.")
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"Regenerate the paper's tables")
    Term.(runtime_result (const run $ quick $ stage_deadline))

let () =
  let doc = "performance-driven system partitioning by quadratic boolean programming" in
  let man =
    [
      `S Manpage.s_exit_status;
      `P "0 on success; 123 on runtime failures (unreadable or malformed input, no \
          feasible start, infeasible instance, a result that fails independent \
          certification, an unusable $(b,--resume) checkpoint); 124 on command-line \
          errors, and on a solve cut short by SIGINT/SIGTERM — the interrupted solve \
          still writes its final checkpoint (with $(b,--checkpoint)) and emits its \
          best-so-far feasible assignment before exiting; 125 on unexpected internal \
          errors.";
    ]
  in
  let info = Cmd.info "qbpart" ~version:"1.0.0" ~doc ~man in
  exit
    (Cmd.eval_result
       (Cmd.group info
          [
            generate_cmd;
            stats_cmd;
            solve_cmd;
            eval_cmd;
            checkpoint_cmd;
            tables_cmd;
            submit_cmd;
            status_cmd;
            cancel_cmd;
            metrics_cmd;
            session_cmd;
            eco_cmd;
          ]))
