type t = {
  src : string;
  mutable next_start : int; (* start of the next line; past the end once exhausted *)
  mutable lnum : int;
  mutable line_start : int;
  mutable line_stop : int; (* exclusive: the '\n' or the end of [src] *)
  mutable spans : int array; (* token k is [src.[spans.(2k)] ..], [spans.(2k+1)] bytes *)
  mutable count : int;
}

let of_string src =
  {
    src;
    next_start = 0;
    lnum = 0;
    line_start = 0;
    line_stop = 0;
    spans = Array.make 16 0;
    count = 0;
  }

let push t start len =
  let k = 2 * t.count in
  if k = Array.length t.spans then begin
    let bigger = Array.make (2 * k) 0 in
    Array.blit t.spans 0 bigger 0 k;
    t.spans <- bigger
  end;
  t.spans.(k) <- start;
  t.spans.(k + 1) <- len;
  t.count <- t.count + 1

(* Byte classes: 0 token, 1 blank (space, tab), 2 end of the tokens
   (a comment character or the newline). *)
let classes =
  Bytes.init 256 (fun c ->
      match Char.chr c with ' ' | '\t' -> '\001' | '#' | ';' | '\n' -> '\002' | _ -> '\000')

let class_at src i = Bytes.unsafe_get classes (Char.code (String.unsafe_get src i))

let next t =
  let src = t.src in
  let n = String.length src in
  let i = ref t.next_start in
  if !i > n then false
  else begin
    t.lnum <- t.lnum + 1;
    t.line_start <- !i;
    t.count <- 0;
    let tokens_end = ref false in
    while (not !tokens_end) && !i < n do
      match class_at src !i with
      | '\000' ->
        let start = !i in
        while !i < n && class_at src !i = '\000' do
          incr i
        done;
        let stop = if String.unsafe_get src (!i - 1) = '\r' then !i - 1 else !i in
        if stop > start then push t start (stop - start)
      | '\001' -> incr i
      | _ -> tokens_end := true
    done;
    while !i < n && String.unsafe_get src !i <> '\n' do
      incr i
    done;
    t.line_stop <- !i;
    t.next_start <- !i + 1;
    true
  end

let line t = t.lnum
let line_text t = String.sub t.src t.line_start (t.line_stop - t.line_start)
let count t = t.count

let span t k =
  if k < 0 || k >= t.count then
    invalid_arg (Printf.sprintf "Scan: token %d of a line with %d" k t.count);
  2 * k

let is t k word =
  let s = span t k in
  let start = t.spans.(s) and len = t.spans.(s + 1) in
  len = String.length word
  &&
  let i = ref 0 in
  while !i < len && String.unsafe_get t.src (start + !i) = String.unsafe_get word !i do
    incr i
  done;
  !i = len

let token t k =
  let s = span t k in
  String.sub t.src t.spans.(s) t.spans.(s + 1)

(* 10^0 .. 10^22: every one is an exact double. *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15;
     1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

(* Clinger's fast path for [-+]?d*[.d*]([eE][-+]?d+)? with 1..15
   digits and a net power of ten within 10^+-22: the digits and the
   power are exact doubles, so one IEEE multiply or divide rounds the
   exact decimal correctly, which is what [float_of_string] (strtod)
   returns.  [nan] means "not this shape"; the caller then falls back
   to [float_of_string_opt]. *)
let decimal src start stop =
  let i = ref start in
  let neg = !i < stop && String.unsafe_get src !i = '-' in
  if !i < stop && (neg || String.unsafe_get src !i = '+') then incr i;
  let mant = ref 0 and digits = ref 0 and scale = ref 0 in
  let digit c = c >= '0' && c <= '9' in
  while !i < stop && digit (String.unsafe_get src !i) do
    mant := (10 * !mant) + Char.code (String.unsafe_get src !i) - 48;
    incr digits;
    incr i
  done;
  if !i < stop && String.unsafe_get src !i = '.' then begin
    incr i;
    while !i < stop && digit (String.unsafe_get src !i) do
      mant := (10 * !mant) + Char.code (String.unsafe_get src !i) - 48;
      incr digits;
      decr scale;
      incr i
    done
  end;
  let shape = ref (!digits >= 1 && !digits <= 15) in
  if !shape && !i < stop && Char.lowercase_ascii (String.unsafe_get src !i) = 'e' then begin
    incr i;
    let eneg = !i < stop && String.unsafe_get src !i = '-' in
    if !i < stop && (eneg || String.unsafe_get src !i = '+') then incr i;
    let e = ref 0 and edigits = ref 0 in
    while !i < stop && digit (String.unsafe_get src !i) do
      if !e < 1000 then e := (10 * !e) + Char.code (String.unsafe_get src !i) - 48;
      incr edigits;
      incr i
    done;
    shape := !edigits > 0;
    scale := if eneg then !scale - !e else !scale + !e
  end;
  if !shape && !i = stop && !scale >= -22 && !scale <= 22 then begin
    let m = float_of_int !mant in
    let x = if !scale >= 0 then m *. pow10.(!scale) else m /. pow10.(- !scale) in
    if neg then -.x else x
  end
  else nan

let float t k =
  let s = span t k in
  let start = t.spans.(s) and len = t.spans.(s + 1) in
  let x = decimal t.src start (start + len) in
  if Float.is_nan x then float_of_string_opt (String.sub t.src start len) else Some x

type error = { line : int; message : string }
type file_error = [ `Parse of error | `Io of string ]

exception Fail of error

let fail t fmt = Printf.ksprintf (fun message -> raise (Fail { line = t.lnum; message })) fmt
let error_to_string e = Printf.sprintf "line %d: %s" e.line e.message

let file_error_to_string = function
  | `Parse e -> error_to_string e
  | `Io msg -> msg

let parse_file parse path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Result.map_error (fun e -> `Parse e) (parse s)
  | exception Sys_error msg -> Error (`Io msg)
