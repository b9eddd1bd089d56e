(* Warm starts as text, one "<component> <partition>" line per
   component: the committed starts and the synth10k planted reference
   are handed over in this form. *)

module Netlist = Qbpart_netlist.Netlist

let to_string nl a =
  let b = Buffer.create (Array.length a * 16) in
  Array.iteri
    (fun j i ->
      Buffer.add_string b (Qbpart_netlist.Component.name (Netlist.component nl j));
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int i);
      Buffer.add_char b '\n')
    a;
  Buffer.contents b

let of_string nl text =
  let a = Array.make (Netlist.n nl) (-1) in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | [ name; slot ] -> (
        match Netlist.find_by_name nl name with
        | Some j -> a.(j) <- int_of_string slot
        | None -> failwith ("start: unknown component " ^ name))
      | [] -> ()
      | _ -> failwith ("start: bad line " ^ line))
    (String.split_on_char '\n' text);
  if Array.exists (fun i -> i < 0) a then failwith "start: unassigned component";
  a
