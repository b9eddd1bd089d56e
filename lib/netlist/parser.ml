type error = Scan.error = { line : int; message : string }
type file_error = Scan.file_error

let error_to_string = Scan.error_to_string
let file_error_to_string = Scan.file_error_to_string

let number sc what k =
  match Scan.float sc k with
  | Some x when Float.is_finite x -> x
  | Some _ -> Scan.fail sc "%s %S is not finite" what (Scan.token sc k)
  | None -> Scan.fail sc "invalid %s %S" what (Scan.token sc k)

let lookup b sc k =
  let name = Scan.token sc k in
  match Netlist.Builder.find b name with
  | Some id -> id
  | None -> Scan.fail sc "unknown component %S" name

let declaration b sc =
  match Scan.count sc with
  | 0 -> ()
  | k when Scan.is sc 0 "component" ->
    if k <> 3 then Scan.fail sc "component syntax: component <name> <size>";
    let name = Scan.token sc 1 in
    if Option.is_some (Netlist.Builder.find b name) then
      Scan.fail sc "duplicate component %S" name;
    let size = number sc "size" 2 in
    if size <= 0.0 then Scan.fail sc "component %S: size must be > 0" name;
    ignore (Netlist.Builder.add_component b ~name ~size () : int)
  | k when Scan.is sc 0 "wire" ->
    if k < 3 || k > 4 then Scan.fail sc "wire syntax: wire <name1> <name2> [weight]";
    let weight =
      if k = 3 then 1.0
      else begin
        let w = number sc "weight" 3 in
        if w <= 0.0 then Scan.fail sc "wire weight must be > 0";
        w
      end
    in
    let j1 = lookup b sc 1 in
    let j2 = lookup b sc 2 in
    if j1 = j2 then Scan.fail sc "self-loop wire on %S" (Scan.token sc 1);
    Netlist.Builder.add_wire b j1 j2 ~weight ()
  | _ -> Scan.fail sc "unknown declaration %S" (Scan.token sc 0)

let parse_string s =
  let b = Netlist.Builder.create () in
  let sc = Scan.of_string s in
  match
    while Scan.next sc do
      declaration b sc
    done
  with
  | () -> Ok (Netlist.Builder.build b)
  | exception Scan.Fail e -> Error e

let parse_file path = Scan.parse_file parse_string path
