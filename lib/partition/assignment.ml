type t = int array

let make ~n i =
  if i < 0 then invalid_arg "Assignment.make: negative partition";
  Array.make n i

let copy = Array.copy
let equal a b = a = b

let check ~m a =
  Array.iteri
    (fun j i ->
      if i < 0 || i >= m then
        invalid_arg (Printf.sprintf "Assignment: component %d assigned to %d, not in [0,%d)" j i m))
    a

let loads nl ~m a =
  let loads = Array.make m 0.0 in
  Array.iteri (fun j i -> loads.(i) <- loads.(i) +. Qbpart_netlist.Netlist.size nl j) a;
  loads

let partition_members ~m a =
  let members = Array.make m [] in
  for j = Array.length a - 1 downto 0 do
    members.(a.(j)) <- j :: members.(a.(j))
  done;
  members

let random rng ~n ~m = Array.init n (fun _ -> Qbpart_netlist.Rng.int rng m)

let flat_index ~m ~i ~j = i + (j * m)
let of_flat_index ~m r = (r mod m, r / m)

let to_flat ~m a =
  let n = Array.length a in
  let y = Array.make (m * n) false in
  Array.iteri (fun j i -> y.(flat_index ~m ~i ~j) <- true) a;
  y

let of_flat ~m ~n y =
  if Array.length y <> m * n then invalid_arg "Assignment.of_flat: wrong length";
  let a = Array.make n (-1) in
  Array.iteri
    (fun r set ->
      if set then begin
        let i, j = of_flat_index ~m r in
        if a.(j) <> -1 then
          invalid_arg (Printf.sprintf "Assignment.of_flat: component %d assigned twice (C3)" j);
        a.(j) <- i
      end)
    y;
  Array.iteri
    (fun j i ->
      if i = -1 then
        invalid_arg (Printf.sprintf "Assignment.of_flat: component %d unassigned (C3)" j))
    a;
  a
