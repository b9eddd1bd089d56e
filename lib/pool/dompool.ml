(* Fork-join over persistent domains.  Spawning a domain costs
   milliseconds, far more than one batch of work, so the workers are
   spawned once and wait between batches: first spinning on the batch
   stamp with [Domain.cpu_relax], then, after [spin_seconds], parked on
   a condition variable (DESIGN.md D28).

   Batch lifecycle: the caller takes the install slot ([busy] from 0
   to -1), which fails while a helper is still leaving the previous
   batch (so none can claim a chunk of the next one with a stale
   closure; the caller then runs the batch alone), installs (task,
   chunks), resets the claim and completion counters, bumps the batch
   stamp, frees the slot and wakes the parked helpers.  A helper that
   sees a new stamp enters the slot ([busy] + 1) and reads the batch
   there, so what it reads is one whole batch.  Everyone, caller
   included, then claims chunk indices from one atomic counter until
   they run out; the worker that finishes the last chunk signals
   completion.  The atomic counters plus the completion mutex give the
   caller a happens-before edge over every chunk's writes, so results
   written into disjoint slices are safe to read as soon as
   [parallel_for] returns. *)

let spin_seconds = 5e-4

type t = {
  size : int;
  lock : Mutex.t;
  work_ready : Condition.t;  (* a batch was posted, or the pool stops *)
  work_done : Condition.t;   (* the last chunk of a batch finished *)
  stamp : int Atomic.t;      (* batches posted so far *)
  busy : int Atomic.t;       (* helpers reading or draining a batch; -1: being installed *)
  parked : int Atomic.t;     (* helpers waiting on [work_ready] *)
  stop : bool Atomic.t;
  mutable task : int -> unit;
  mutable chunks : int;
  mutable failure : exn option;
  next : int Atomic.t;       (* next chunk index to claim *)
  remaining : int Atomic.t;  (* chunks not yet finished *)
  spin_hits : int Atomic.t;  (* batches a helper met while spinning *)
  mutable workers : unit Domain.t array;
}

let size t = t.size
let no_task (_ : int) = ()
let new_batch t seen = Atomic.get t.stamp <> seen || Atomic.get t.stop
let all_done t (_ : int) = Atomic.get t.remaining = 0

(* Spin until [ready t x], reading the clock every 16 turns; false once
   [spin_seconds] passed (or the clock stepped back) first.  [ready] is
   a closed function, so waiting allocates nothing. *)
let spin t ready x =
  let t0 = Unix.gettimeofday () in
  let turn = ref 0 and result = ref 0 in
  while !result = 0 do
    if ready t x then result := 1
    else begin
      incr turn;
      if !turn land 15 = 0 then begin
        let dt = Unix.gettimeofday () -. t0 in
        if dt >= spin_seconds || dt < 0.0 then result := 2
      end;
      Domain.cpu_relax ()
    end
  done;
  !result = 1

(* Claim and run chunks until none is left. *)
let drain t f chunks =
  let continue = ref true in
  while !continue do
    let c = Atomic.fetch_and_add t.next 1 in
    if c >= chunks then continue := false
    else begin
      (try f c
       with e ->
         Mutex.lock t.lock;
         if t.failure = None then t.failure <- Some e;
         Mutex.unlock t.lock);
      if Atomic.fetch_and_add t.remaining (-1) = 1 then begin
        Mutex.lock t.lock;
        Condition.broadcast t.work_done;
        Mutex.unlock t.lock
      end
    end
  done

(* Wait for a stamp other than [seen], or the stop flag: spin (unless
   [spin_first] is false), then park.  A poster reads [parked] after
   bumping the stamp, and a helper reads the stamp after counting
   itself parked, so one of them always sees the other's write and no
   batch is missed. *)
let await_batch t seen ~spin_first =
  if spin_first && spin t new_batch seen then begin
    if not (Atomic.get t.stop) then Atomic.incr t.spin_hits
  end
  else begin
    Mutex.lock t.lock;
    Atomic.incr t.parked;
    while not (new_batch t seen) do
      Condition.wait t.work_ready t.lock
    done;
    Atomic.decr t.parked;
    Mutex.unlock t.lock
  end

let rec enter t =
  let b = Atomic.get t.busy in
  if not (b >= 0 && Atomic.compare_and_set t.busy b (b + 1)) then begin
    Domain.cpu_relax ();
    enter t
  end

(* A helper starts parked, so a pool that is never used takes no CPU. *)
let worker t () =
  let seen = ref 0 and spin_first = ref false in
  while
    await_batch t !seen ~spin_first:!spin_first;
    not (Atomic.get t.stop)
  do
    spin_first := true;
    enter t;
    seen := Atomic.get t.stamp;
    drain t t.task t.chunks;
    Atomic.decr t.busy
  done

let create ~domains =
  if domains < 1 then invalid_arg "Dompool.create: domains must be >= 1";
  let t =
    {
      size = domains;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      stamp = Atomic.make 0;
      busy = Atomic.make 0;
      parked = Atomic.make 0;
      stop = Atomic.make false;
      task = no_task;
      chunks = 0;
      failure = None;
      next = Atomic.make 0;
      remaining = Atomic.make 0;
      spin_hits = Atomic.make 0;
      workers = [||];
    }
  in
  t.workers <- Array.init (domains - 1) (fun _ -> Domain.spawn (worker t));
  t

let sequential = create ~domains:1

let fork t ~chunks f =
  t.task <- f;
  t.chunks <- chunks;
  t.failure <- None;
  Atomic.set t.next 0;
  Atomic.set t.remaining chunks;
  Atomic.incr t.stamp;
  Atomic.set t.busy 0;
  if Atomic.get t.parked > 0 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock
  end;
  drain t f chunks;
  if not (spin t all_done 0) then begin
    Mutex.lock t.lock;
    while Atomic.get t.remaining > 0 do
      Condition.wait t.work_done t.lock
    done;
    Mutex.unlock t.lock
  end;
  t.task <- no_task;
  let failure = t.failure in
  t.failure <- None;
  Option.iter raise failure

let parallel_for t ~chunks f =
  if chunks < 0 then invalid_arg "Dompool.parallel_for: negative chunks";
  if chunks > 0 then
    if t.size = 1 || chunks = 1 then
      for c = 0 to chunks - 1 do
        f c
      done
    else begin
      if Atomic.get t.stop then invalid_arg "Dompool.parallel_for: pool is shut down";
      if Atomic.compare_and_set t.busy 0 (-1) then fork t ~chunks f
      else begin
        (* a helper is still leaving the last batch: run this one
           alone, with [fork]'s exception contract *)
        let failure = ref None in
        for c = 0 to chunks - 1 do
          try f c with e -> if !failure = None then failure := Some e
        done;
        Option.iter raise !failure
      end
    end

(* Idle pools, by size, for [acquire]; [at_exit] joins their helpers. *)
let idle : t list ref = ref []
let idle_lock = Mutex.create ()

let with_idle f =
  Mutex.lock idle_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock idle_lock) f

let shutdown t =
  if t.size > 1 && not (Atomic.exchange t.stop true) then begin
    Mutex.lock t.lock;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers
  end

let () = at_exit (fun () -> List.iter shutdown (with_idle (fun () -> !idle)))

let acquire ~domains =
  if domains = 1 then sequential
  else
    match
      with_idle (fun () ->
          match List.partition (fun t -> t.size = domains) !idle with
          | t :: rest, others ->
            idle := rest @ others;
            Some t
          | [], _ -> None)
    with
    | Some t -> t
    | None -> create ~domains

let release t =
  if t.size > 1 && not (Atomic.get t.stop) then with_idle (fun () -> idle := t :: !idle)

let spin_hits t = Atomic.get t.spin_hits
