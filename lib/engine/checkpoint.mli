(** Crash-safe solve state: versioned, atomically-written checkpoints.

    A long-running solve must survive the process dying mid-run.  A
    checkpoint captures everything needed to continue a solve with
    its remaining budget: the best feasible incumbent found so far
    (and its scratch-evaluated cost), the per-start progress of a
    one-generation search (which starts completed, with what seed, after how
    many supervised attempts), the base RNG seed, and the wall-clock
    budget already consumed.

    Durability contract (DESIGN.md D8):

    - {!save} writes to a temporary file in the target's directory,
      flushes, [fsync]s the file, atomically renames it over [path],
      and best-effort-[fsync]s the directory — a reader never observes
      a torn checkpoint, and after {!save} returns the data survives
      power loss;
    - the format is versioned and self-delimiting (a trailing [end]
      marker), so truncated or corrupt files are rejected with a
      positioned {!error} instead of being half-read;
    - a checkpoint embeds a structural {!instance_hash} of the problem
      it was taken from; {!validate} refuses to resume against a
      different instance.

    Floats round-trip losslessly (hexadecimal literals), so
    encode/decode is exact — qcheck-tested in
    [test/test_checkpoint.ml]. *)

module Assignment := Qbpart_partition.Assignment
module Problem := Qbpart_core.Problem

type start_progress = {
  start : int;             (** start index *)
  seed : int;              (** seed of the attempt that produced the record *)
  attempts : int;          (** supervised attempts consumed (≥ 1) *)
  feasible_cost : float option;  (** best feasible cost of this start, if any *)
  failure : string option; (** final-attempt failure; [None] = completed *)
}

type fingerprint = {
  fp_n : int;  (** component count {m N} *)
  fp_m : int;  (** partition count {m M} *)
  fp_wires : int;  (** distinct wire count *)
  fp_weight : float;  (** total wire weight *)
}
(** A cheap structural cross-check carried alongside {!instance_hash}:
    a 64-bit hash collision (or a forged/stale store file) must not
    silently resume the wrong instance. *)

type t = {
  instance_hash : int64;   (** {!instance_hash} of the originating problem *)
  fingerprint : fingerprint option;
      (** structural cross-check; [None] in files written before
          format v3 *)
  base_seed : int;         (** the run's base RNG seed *)
  elapsed : float;         (** wall-clock budget consumed before this point *)
  incumbent : Assignment.t;(** best feasible assignment so far *)
  incumbent_cost : float;  (** its scratch-evaluated equation-(1) objective *)
  incumbent_start : int;
      (** start index that produced the incumbent, or [-1]
          for the safety/initial start.  A resumed run uses it to
          replay the original tie-break (ascending start index, safety
          start first), which keeps a kill-and-resume solve bit-identical
          to an uninterrupted one even when a re-run start ties the
          incumbent's cost. *)
  starts : start_progress list;  (** completed starts, ascending *)
}

type error =
  | Io of string                       (** filesystem failure, rendered *)
  | Corrupt of { line : int; reason : string }
      (** truncated or malformed content, with the offending line *)
  | Unsupported_version of int
  | Instance_mismatch of { expected : int64; got : int64 }
      (** the checkpoint was taken from a different problem instance *)
  | Fingerprint_mismatch of { expected : fingerprint; got : fingerprint }
      (** hash matched but the structure disagrees: a collision or a
          corrupted store entry, refused rather than resumed *)

val version : int
(** Current format version (3).  Version-1 files (no [winner] line) and
    version-2 files (no [fingerprint] line) are still read; missing
    fields decode as [-1] / [None]. *)

val fingerprint_equal : fingerprint -> fingerprint -> bool

val instance_hash : Problem.t -> int64
(** Deterministic structural hash of the instance: {m N}, {m M}, every
    size and capacity, every wire (endpoints and weight), {m D}, every
    directed timing budget, {m α}, {m β} and {m P} when present.  Stable
    across runs, processes and builds (FNV-1a, no randomized hashing),
    so store files and checkpoints keep their names.  One pass that
    allocates only its result (on a 2-vCPU VM, about 0.1 ms at ckta's
    339 components, 2.4 ms at synth10k); a caller keeps it for reuse. *)

val make :
  ?incumbent_start:int ->
  hash:int64 ->
  problem:Problem.t ->
  base_seed:int ->
  elapsed:float ->
  incumbent:Assignment.t ->
  incumbent_cost:float ->
  starts:start_progress list ->
  unit ->
  t
(** [hash] is {!instance_hash} of [problem], computed once by the
    caller for all the checkpoints it makes: [make] itself does not
    hash.  The incumbent is copied; [incumbent_start] defaults to [-1]. *)

val to_string : t -> string
val of_string : string -> (t, error) result

val save : path:string -> t -> (unit, error) result
(** Atomic durable write: temp file + [fsync] + rename (+ best-effort
    directory [fsync]).  The checkpoint streams through the channel's
    bounded buffer, so a 100k-component assignment line never exists
    as one in-memory string.  On error the temp file is removed and
    [path] is untouched. *)

val load : path:string -> (t, error) result

val store_path : dir:string -> hash:int64 -> string
(** [dir/qbpartd-<hex hash>.ckpt] — the shared replicated-store naming
    convention: keyed by {!instance_hash} so any shard can locate a dead
    peer's last checkpoint for the instance it was handed. *)

val validate : hash:int64 -> t -> Problem.t -> (unit, error) result
(** [hash] is {!instance_hash} of [problem], computed by the caller, as
    for {!make}: [validate] itself does not hash.
    [Error (Instance_mismatch _)] unless the checkpoint's hash matches
    it; [Error (Fingerprint_mismatch _)] when the hash matches but the
    stored structural fingerprint does not — a colliding or corrupted
    checkpoint is rejected, not resumed. *)

val error_to_string : error -> string
