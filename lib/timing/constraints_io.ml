module Netlist = Qbpart_netlist.Netlist
module Scan = Qbpart_netlist.Scan

type error = Scan.error = { line : int; message : string }
type file_error = Scan.file_error

let error_to_string = Scan.error_to_string
let file_error_to_string = Scan.file_error_to_string

let lookup nl sc k =
  let name = Scan.token sc k in
  match Netlist.find_by_name nl name with
  | Some id -> id
  | None -> Scan.fail sc "unknown component %S" name

let budget_of sc k =
  match Scan.float sc k with
  | Some x when x >= 0.0 && not (Float.is_nan x) -> x
  | _ -> Scan.fail sc "invalid budget %S" (Scan.token sc k)

let budget_line nl sc add =
  let j1 = lookup nl sc 1 in
  let j2 = lookup nl sc 2 in
  if j1 = j2 then Scan.fail sc "budget on a component with itself: %S" (Scan.token sc 1);
  add j1 j2 (budget_of sc 3)

let declaration nl b sc =
  match Scan.count sc with
  | 0 -> ()
  | 4 when Scan.is sc 0 "budget" -> budget_line nl sc (Constraints.Builder.add b)
  | 4 when Scan.is sc 0 "budget_sym" -> budget_line nl sc (Constraints.Builder.add_sym b)
  | _ -> Scan.fail sc "unknown declaration %S (budget | budget_sym)" (Scan.token sc 0)

let parse_string nl source =
  let b = Constraints.Builder.create ~n:(Netlist.n nl) in
  let sc = Scan.of_string source in
  match
    while Scan.next sc do
      declaration nl b sc
    done
  with
  | () -> Ok (Constraints.Builder.build b)
  | exception Scan.Fail e -> Error e

let parse_file nl path = Scan.parse_file (parse_string nl) path

let to_string nl cons =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# qbpart timing budgets\n";
  Constraints.iter cons (fun j1 j2 b ->
      Buffer.add_string buf
        (Printf.sprintf "budget %s %s %.17g\n"
           (Qbpart_netlist.Component.name (Netlist.component nl j1))
           (Qbpart_netlist.Component.name (Netlist.component nl j2))
           b));
  Buffer.contents buf

let to_file nl cons path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc (to_string nl cons))
