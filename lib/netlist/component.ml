type t = { id : int; name : string; size : float }

let make ~id ~name ~size =
  if size <= 0.0 then
    invalid_arg (Printf.sprintf "Component.make %S: size must be > 0 (got %g)" name size);
  if id < 0 then invalid_arg "Component.make: id must be >= 0";
  { id; name; size }

let id t = t.id
let name t = t.name
let size t = t.size
let equal a b = a.id = b.id && String.equal a.name b.name && a.size = b.size
