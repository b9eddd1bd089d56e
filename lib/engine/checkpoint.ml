module Netlist = Qbpart_netlist.Netlist
module Topology = Qbpart_topology.Topology
module Constraints = Qbpart_timing.Constraints
module Assignment = Qbpart_partition.Assignment
module Problem = Qbpart_core.Problem

type start_progress = {
  start : int;
  seed : int;
  attempts : int;
  feasible_cost : float option;
  failure : string option;
}

(* A 64-bit hash alone must not be the sole gate between a checkpoint
   and the instance it resumes: a collision (or a forged/stale store
   file) would silently warm-start the wrong problem.  The fingerprint
   is a cheap independent structural cross-check. *)
type fingerprint = { fp_n : int; fp_m : int; fp_wires : int; fp_weight : float }

type t = {
  instance_hash : int64;
  fingerprint : fingerprint option;
  base_seed : int;
  elapsed : float;
  incumbent : Assignment.t;
  incumbent_cost : float;
  incumbent_start : int;
  starts : start_progress list;
}

type error =
  | Io of string
  | Corrupt of { line : int; reason : string }
  | Unsupported_version of int
  | Instance_mismatch of { expected : int64; got : int64 }
  | Fingerprint_mismatch of { expected : fingerprint; got : fingerprint }

let version = 3

(* FNV-1a, 64-bit, over the eight bytes of each value, least
   significant first.  OCaml's polymorphic [Hashtbl.hash] truncates and
   is not guaranteed stable across versions, so the hash is spelled
   out: a checkpoint written by one binary must be readable by the
   next build.  The steps are inlined and unrolled, and [instance_hash]
   loops on one unboxed local, so a call allocates only its result. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let[@inline] fnv1a64_byte h x shift =
  Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical x shift) 0xffL)) fnv_prime

let[@inline] fnv1a64_int64 h x =
  let h = fnv1a64_byte (fnv1a64_byte (fnv1a64_byte (fnv1a64_byte h x 0) x 8) x 16) x 24 in
  fnv1a64_byte (fnv1a64_byte (fnv1a64_byte (fnv1a64_byte h x 32) x 40) x 48) x 56

let[@inline] fnv1a64_int h x = fnv1a64_int64 h (Int64.of_int x)
let[@inline] fnv1a64_float h x = fnv1a64_int64 h (Int64.bits_of_float x)

(* Wires are the CSR rows' neighbours v > u (the merged wire order),
   budgets the partner rows' finite out-budgets ([Constraints.iter]'s
   order). *)
let instance_hash problem =
  let nl = problem.Problem.netlist and topo = problem.Problem.topology in
  let cons = problem.Problem.constraints in
  let n = Problem.n problem and m = Problem.m problem in
  let h = ref fnv_offset in
  h := fnv1a64_int !h n;
  h := fnv1a64_int !h m;
  for j = 0 to n - 1 do
    h := fnv1a64_float !h (Netlist.size nl j)
  done;
  let capacities = Topology.capacity_array topo in
  for i = 0 to m - 1 do
    h := fnv1a64_float !h capacities.(i)
  done;
  let xadj = Netlist.adj_offsets nl and anbr = Netlist.adj_targets nl in
  let awgt = Netlist.adj_weights nl in
  for u = 0 to n - 1 do
    for k = xadj.(u) to xadj.(u + 1) - 1 do
      if anbr.(k) > u then h := fnv1a64_float (fnv1a64_int (fnv1a64_int !h u) anbr.(k)) awgt.(k)
    done
  done;
  let d = Topology.d_flat topo in
  for r = 0 to (m * m) - 1 do
    h := fnv1a64_float !h d.(r)
  done;
  let poff = Constraints.partner_offsets cons and pother = Constraints.partner_ids cons in
  let pbout = Constraints.partner_budget_out cons in
  for j = 0 to Constraints.n cons - 1 do
    for k = poff.(j) to poff.(j + 1) - 1 do
      if pbout.(k) < infinity then
        h := fnv1a64_float (fnv1a64_int (fnv1a64_int !h j) pother.(k)) pbout.(k)
    done
  done;
  h := fnv1a64_float !h problem.Problem.alpha;
  h := fnv1a64_float !h problem.Problem.beta;
  (match problem.Problem.p with
  | None -> h := fnv1a64_int !h 0
  | Some p ->
    h := fnv1a64_int !h 1;
    for i = 0 to Array.length p - 1 do
      for j = 0 to Array.length p.(i) - 1 do
        h := fnv1a64_float !h p.(i).(j)
      done
    done);
  !h

let fingerprint_of_problem problem =
  let nl = problem.Problem.netlist in
  {
    fp_n = Problem.n problem;
    fp_m = Problem.m problem;
    fp_wires = Netlist.wire_count nl;
    fp_weight = Netlist.total_wire_weight nl;
  }

let fingerprint_equal a b =
  a.fp_n = b.fp_n && a.fp_m = b.fp_m && a.fp_wires = b.fp_wires
  && Int64.bits_of_float a.fp_weight = Int64.bits_of_float b.fp_weight

let make ?(incumbent_start = -1) ~hash ~problem ~base_seed ~elapsed ~incumbent ~incumbent_cost
    ~starts () =
  {
    instance_hash = hash;
    fingerprint = Some (fingerprint_of_problem problem);
    base_seed;
    elapsed;
    incumbent = Assignment.copy incumbent;
    incumbent_cost;
    incumbent_start;
    starts;
  }

(* Line-based text format, version-prefixed, [end]-terminated.  Floats
   are hexadecimal literals ([%h]) so decode is bit-exact; option
   fields use "-" for [None].  Failure strings are percent-escaped so
   a message containing a newline or a space (the token separator)
   cannot desynchronize the parser. *)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '%' | '\n' | '\r' | ' ' | '\t' ->
        Buffer.add_string b (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* [None] when a '%' is not followed by two hex digits. *)
let unescape s =
  let b = Buffer.create (String.length s) in
  let len = String.length s in
  let rec go i =
    if i >= len then Some (Buffer.contents b)
    else if s.[i] <> '%' then begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
    else
      let hi = if i + 1 < len then hex_digit s.[i + 1] else -1 in
      let lo = if i + 2 < len then hex_digit s.[i + 2] else -1 in
      if hi < 0 || lo < 0 then None
      else begin
        Buffer.add_char b (Char.chr ((hi * 16) + lo));
        go (i + 3)
      end
  in
  go 0

(* One serializer behind a string sink: [output] points it at a
   buffered channel so a 100k-component assignment streams through the
   channel's fixed buffer instead of materializing a megabyte string;
   [to_string] points it at a [Buffer] for tests and small files. *)
let write emit cp =
  let emitf fmt = Printf.ksprintf emit fmt in
  emitf "qbpart-checkpoint %d\n" version;
  emitf "hash %Lx\n" cp.instance_hash;
  (match cp.fingerprint with
  | Some fp -> emitf "fingerprint %d %d %d %h\n" fp.fp_n fp.fp_m fp.fp_wires fp.fp_weight
  | None -> ());
  emitf "seed %d\n" cp.base_seed;
  emitf "elapsed %h\n" cp.elapsed;
  emitf "cost %h\n" cp.incumbent_cost;
  emitf "winner %d\n" cp.incumbent_start;
  emitf "starts %d\n" (List.length cp.starts);
  List.iter
    (fun s ->
      emitf "start %d %d %d %s %s\n" s.start s.seed s.attempts
        (match s.feasible_cost with None -> "-" | Some c -> Printf.sprintf "%h" c)
        (match s.failure with None -> "-" | Some msg -> "!" ^ escape msg))
    cp.starts;
  emitf "assignment %d\n" (Array.length cp.incumbent);
  Array.iteri (fun j p -> if j = 0 then emitf "%d" p else emitf " %d" p) cp.incumbent;
  if Array.length cp.incumbent > 0 then emit "\n";
  emit "end\n"

let output oc cp = write (Stdlib.output_string oc) cp

let to_string cp =
  let b = Buffer.create 1024 in
  write (Buffer.add_string b) cp;
  Buffer.contents b

let of_string text =
  let lines = String.split_on_char '\n' text in
  let lines = Array.of_list lines in
  let pos = ref 0 in
  let exception Fail of error in
  let corrupt reason = raise (Fail (Corrupt { line = !pos; reason })) in
  let next () =
    if !pos >= Array.length lines then corrupt "unexpected end of file"
    else begin
      let l = lines.(!pos) in
      incr pos;
      l
    end
  in
  let int_of s what =
    match int_of_string_opt s with
    | Some v -> v
    | None -> corrupt (Printf.sprintf "invalid %s %S" what s)
  in
  let float_of s what =
    match float_of_string_opt s with
    | Some v -> v
    | None -> corrupt (Printf.sprintf "invalid %s %S" what s)
  in
  let field key =
    let l = next () in
    match String.index_opt l ' ' with
    | Some i when String.sub l 0 i = key ->
      String.sub l (i + 1) (String.length l - i - 1)
    | _ -> corrupt (Printf.sprintf "expected %S line, got %S" key l)
  in
  try
    let file_version =
      match String.split_on_char ' ' (next ()) with
      | [ "qbpart-checkpoint"; v ] ->
        let v = int_of v "version" in
        if v < 1 || v > version then raise (Fail (Unsupported_version v));
        v
      | _ -> corrupt "missing qbpart-checkpoint header"
    in
    let instance_hash =
      let s = field "hash" in
      match Int64.of_string_opt ("0x" ^ s) with
      | Some h -> h
      | None -> corrupt (Printf.sprintf "invalid hash %S" s)
    in
    (* The fingerprint line is optional (absent in v1/v2 files and in
       checkpoints built without a problem in hand). *)
    let fingerprint =
      let is_fp =
        !pos < Array.length lines
        && String.length lines.(!pos) >= 12
        && String.sub lines.(!pos) 0 12 = "fingerprint "
      in
      if not is_fp then None
      else
        match String.split_on_char ' ' (next ()) with
        | [ "fingerprint"; n; m; w; wt ] ->
          Some
            {
              fp_n = int_of n "fingerprint n";
              fp_m = int_of m "fingerprint m";
              fp_wires = int_of w "fingerprint wires";
              fp_weight = float_of wt "fingerprint weight";
            }
        | _ -> corrupt "malformed fingerprint line"
    in
    let base_seed = int_of (field "seed") "seed" in
    let elapsed = float_of (field "elapsed") "elapsed" in
    if not (elapsed >= 0.0) then corrupt "negative elapsed";
    let incumbent_cost = float_of (field "cost") "cost" in
    (* v1 has no winner line; -1 (the safety start, which wins all
       ties) reproduces v1's strict-improvement adoption exactly *)
    let incumbent_start =
      if file_version >= 2 then int_of (field "winner") "winner" else -1
    in
    let start_count = int_of (field "starts") "start count" in
    if start_count < 0 then corrupt "negative start count";
    let starts =
      List.init start_count (fun _ ->
          match String.split_on_char ' ' (next ()) with
          | "start" :: start :: seed :: attempts :: cost :: rest ->
            let feasible_cost =
              if cost = "-" then None else Some (float_of cost "start cost")
            in
            let failure =
              match rest with
              | [ "-" ] -> None
              | [ msg ] when String.length msg > 0 && msg.[0] = '!' -> (
                match unescape (String.sub msg 1 (String.length msg - 1)) with
                | Some _ as failure -> failure
                | None -> corrupt (Printf.sprintf "invalid escape in start failure %S" msg))
              | _ -> corrupt "malformed start failure field"
            in
            {
              start = int_of start "start index";
              seed = int_of seed "start seed";
              attempts = int_of attempts "start attempts";
              feasible_cost;
              failure;
            }
          | _ -> corrupt "malformed start line")
    in
    let len = int_of (field "assignment") "assignment length" in
    if len < 0 then corrupt "negative assignment length";
    let incumbent =
      if len = 0 then [||]
      else begin
        let parts = String.split_on_char ' ' (next ()) in
        let parts = List.filter (fun s -> s <> "") parts in
        if List.length parts <> len then
          corrupt
            (Printf.sprintf "assignment declares %d components, line has %d" len
               (List.length parts));
        Array.of_list (List.map (fun s -> int_of s "assignment entry") parts)
      end
    in
    (match next () with "end" -> () | l -> corrupt (Printf.sprintf "expected end trailer, got %S" l));
    Ok
      {
        instance_hash;
        fingerprint;
        base_seed;
        elapsed;
        incumbent;
        incumbent_cost;
        incumbent_start;
        starts;
      }
  with Fail e -> Error e

let fsync_dir dir =
  (* Durability of the rename itself; best-effort because some
     filesystems refuse to fsync a directory fd. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let save ~path cp =
  let dir = Filename.dirname path in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> try close_out_noerr oc with _ -> ())
      (fun () ->
        output oc cp;
        flush oc;
        Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path;
    fsync_dir dir;
    Ok ()
  with
  | Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Io msg)
  | Unix.Unix_error (err, fn, arg) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Io (Printf.sprintf "%s: %s %s" fn (Unix.error_message err) arg))

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Io msg)
  | text -> of_string text

(* Shared-store naming: one file per problem instance, so any shard
   (or a post-mortem CLI run) finds a dead peer's last checkpoint by
   hashing the instance it was asked to solve. *)
let store_path ~dir ~hash = Filename.concat dir (Printf.sprintf "qbpartd-%Lx.ckpt" hash)

let validate ~hash cp problem =
  if not (Int64.equal cp.instance_hash hash) then
    Error (Instance_mismatch { expected = hash; got = cp.instance_hash })
  else
    (* Hash match is necessary but not sufficient: a 64-bit collision
       (or a forged store file) must not resume the wrong instance. *)
    match cp.fingerprint with
    | None -> Ok ()
    | Some got ->
      let expected = fingerprint_of_problem problem in
      if fingerprint_equal got expected then Ok ()
      else Error (Fingerprint_mismatch { expected; got })

let error_to_string = function
  | Io msg -> Printf.sprintf "checkpoint I/O error: %s" msg
  | Corrupt { line; reason } ->
    Printf.sprintf "corrupt checkpoint (line %d): %s" line reason
  | Unsupported_version v ->
    Printf.sprintf "unsupported checkpoint version %d (this build reads version %d)" v
      version
  | Instance_mismatch { expected; got } ->
    Printf.sprintf
      "checkpoint was taken from a different instance (hash %Lx, expected %Lx)" got
      expected
  | Fingerprint_mismatch { expected; got } ->
    Printf.sprintf
      "checkpoint fingerprint mismatch despite matching hash (got N=%d M=%d wires=%d \
       weight=%g, expected N=%d M=%d wires=%d weight=%g): refusing to resume a colliding \
       instance"
      got.fp_n got.fp_m got.fp_wires got.fp_weight expected.fp_n expected.fp_m
      expected.fp_wires expected.fp_weight
