type t = { u : int; v : int; weight : float }

let make j1 j2 ~weight =
  if j1 < 0 || j2 < 0 then invalid_arg "Wire.make: negative component id";
  if j1 = j2 then
    invalid_arg (Printf.sprintf "Wire.make: self-loop on component %d" j1);
  if weight <= 0.0 then
    invalid_arg (Printf.sprintf "Wire.make %d-%d: weight must be > 0 (got %g)" j1 j2 weight);
  if j1 < j2 then { u = j1; v = j2; weight } else { u = j2; v = j1; weight }

let u t = t.u
let v t = t.v
let weight t = t.weight

let other t j =
  if j = t.u then t.v
  else if j = t.v then t.u
  else invalid_arg (Printf.sprintf "Wire.other: %d is not an endpoint of %d-%d" j t.u t.v)

let equal a b = a.u = b.u && a.v = b.v && a.weight = b.weight

let compare a b =
  match Int.compare a.u b.u with
  | 0 -> ( match Int.compare a.v b.v with 0 -> Float.compare a.weight b.weight | c -> c)
  | c -> c
