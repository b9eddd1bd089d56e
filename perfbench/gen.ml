(* Writes the committed paper_table3 inputs: the seven Table I circuits
   in the Table III setting (4x4 grid, capacity slack 1.08, planted
   timing budgets) and the shared feasible start all three methods begin
   from.

   Both the budget planting (around a Burkard reference) and the shared
   start (a zero-B Burkard run) depend on the solver's search
   trajectory, so the benchmark never regenerates them: it parses these
   files on every run and a solver change cannot silently change its
   own workload.

   Usage: gen.exe OUT_DIR
   writes OUT_DIR/{manifest,<circuit>.net,<circuit>.tim,<circuit>.start} *)

module Circuits = Qbpart_experiments.Circuits
module Runner = Qbpart_experiments.Runner
module Topology = Qbpart_topology.Topology

let write path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let () =
  match Sys.argv with
  | [| _; dir |] ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let manifest = Buffer.create 512 in
    List.iter
      (fun (spec : Circuits.spec) ->
        let inst = Circuits.build spec in
        let nl = inst.Circuits.netlist and topo = inst.Circuits.topology in
        let start = Runner.initial_solution inst in
        let name = spec.Circuits.name in
        write (Filename.concat dir (name ^ ".net")) (Qbpart_netlist.Printer.to_string nl);
        write
          (Filename.concat dir (name ^ ".tim"))
          (Qbpart_timing.Constraints_io.to_string nl inst.Circuits.constraints);
        write (Filename.concat dir (name ^ ".start")) (Start_text.to_string nl start);
        (* uniform grid: rows cols capacity *)
        Buffer.add_string manifest
          (Printf.sprintf "%s 4 4 %.17g\n" name (Topology.capacity topo 0)))
      Circuits.table1;
    write (Filename.concat dir "manifest") (Buffer.contents manifest)
  | _ ->
    prerr_endline "usage: gen.exe OUT_DIR";
    exit 2
