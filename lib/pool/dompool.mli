(** A bounded fork-join pool of worker domains for intra-solve
    parallelism, shared between the population/portfolio schedulers and
    the kernels below them.

    The design contract is determinism: [parallel_for] hands out chunk
    indices, every chunk writes only state no other chunk touches, and
    the caller observes all writes once the call returns.  Because a
    chunk's {e result} never depends on which domain ran it or in what
    order chunks were claimed, a computation built on this pool is
    bit-identical for every pool size — [create ~domains:1] spawns
    nothing and degenerates to the plain sequential loop.

    Between batches a helper spins on the batch stamp with
    [Domain.cpu_relax] for {!spin_seconds}, then parks on a condition
    variable; the spin also watches the stop flag.  A batch posted
    during the spin starts in a few microseconds, and posting one wakes
    the parked helpers.  The caller waits for the last chunk by
    spinning, then parking (DESIGN.md D28).

    A pool has a single orchestrating domain: [parallel_for] must not
    be called concurrently from two domains, and tasks must not
    re-enter the pool (no nested batches).  Both schedulers obey this
    by giving each of their workers its own pool. *)

type t

val spin_seconds : float
(** How long an idle helper (or the caller waiting for the last chunk)
    spins before it parks: 0.5 ms, about one Table III Burkard
    iteration.  A constant. *)

val create : domains:int -> t
(** [create ~domains] builds a pool of [domains] workers including the
    caller, spawning [domains - 1] helper domains that persist until
    [shutdown].  [domains < 1] is an [Invalid_argument]. *)

val acquire : domains:int -> t
(** A pool of [domains] workers: {!sequential} for 1, otherwise one
    that an earlier user {!release}d, or a new one.  Reusing pools
    spares a caller that runs many short solves, such as one start per
    Table III circuit, a domain spawn and join per solve.  The helpers
    of idle pools stay parked, and exiting the program joins them.
    @raise Invalid_argument if [domains < 1]. *)

val release : t -> unit
(** Give an idle pool from {!acquire} back for reuse; the caller must
    not use it afterwards.  A no-op for {!sequential} and for a pool
    that was shut down. *)

val sequential : t
(** The shared size-1 pool: no domains, no locks taken, every batch
    runs inline in the caller.  [shutdown] on it is a no-op, so it is
    safe as a default everywhere. *)

val size : t -> int
(** Worker count including the calling domain. *)

val parallel_for : t -> chunks:int -> (int -> unit) -> unit
(** [parallel_for t ~chunks f] runs [f 0 .. f (chunks - 1)], fanned
    across the pool's workers with the caller participating, and
    returns once every chunk finished.  Which domain runs a chunk is
    not fixed: the caller claims whatever no helper reached, and runs
    the whole batch itself when a helper is still leaving the previous
    one.  The first exception any chunk raised is re-raised in the
    caller after the batch completes; the remaining chunks still run.
    Allocates nothing beyond what [f] does.
    @raise Invalid_argument if [chunks < 0], or on a pool that was
    shut down (with [chunks > 1] and [size > 1]). *)

val spin_hits : t -> int
(** Batches the pool's helpers, summed, met while spinning rather than
    parked, since [create].  A diagnostic. *)

val shutdown : t -> unit
(** Join the helper domains.  Idempotent; the pool must be idle. *)
