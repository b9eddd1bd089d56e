let ring_capacity = 4096

type t = {
  mu : Mutex.t;
  started_at : float;
  mutable accepted : int;
  mutable rejected : int;
  mutable completed : int;
  mutable failed : int;
  mutable cancelled : int;
  samples : float array;       (* wall-time ring *)
  mutable sample_count : int;  (* total ever recorded *)
  mutable max_wall : float;
  mutable shed : int;
  fallbacks : (string, int) Hashtbl.t;
  (* ECO session serving *)
  mutable eco_warm_hits : int;
  mutable eco_cold_fallbacks : int;
  mutable integrity_failures : int;
}

let create () =
  {
    mu = Mutex.create ();
    started_at = Unix.gettimeofday ();
    accepted = 0;
    rejected = 0;
    completed = 0;
    failed = 0;
    cancelled = 0;
    samples = Array.make ring_capacity 0.0;
    sample_count = 0;
    max_wall = 0.0;
    shed = 0;
    fallbacks = Hashtbl.create 8;
    eco_warm_hits = 0;
    eco_cold_fallbacks = 0;
    integrity_failures = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let accepted t = locked t (fun () -> t.accepted <- t.accepted + 1)
let rejected t = locked t (fun () -> t.rejected <- t.rejected + 1)
let failed t = locked t (fun () -> t.failed <- t.failed + 1)
let cancelled t = locked t (fun () -> t.cancelled <- t.cancelled + 1)
let shed t = locked t (fun () -> t.shed <- t.shed + 1)

let completed t ~wall =
  locked t (fun () ->
      t.completed <- t.completed + 1;
      t.samples.(t.sample_count mod ring_capacity) <- wall;
      t.sample_count <- t.sample_count + 1;
      if wall > t.max_wall then t.max_wall <- wall)

let eco_warm_hit t = locked t (fun () -> t.eco_warm_hits <- t.eco_warm_hits + 1)

let eco_cold_fallback t =
  locked t (fun () -> t.eco_cold_fallbacks <- t.eco_cold_fallbacks + 1)

let integrity_failure t =
  locked t (fun () -> t.integrity_failures <- t.integrity_failures + 1)

let fallback t stage =
  locked t (fun () ->
      Hashtbl.replace t.fallbacks stage
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.fallbacks stage)))

(* nearest-rank percentile over the retained samples *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

let snapshot t ~queue_depth ~running ~draining =
  locked t (fun () ->
      let n = min t.sample_count ring_capacity in
      let sorted = Array.sub t.samples 0 n in
      Array.sort compare sorted;
      {
        Protocol.accepted = t.accepted;
        rejected = t.rejected;
        completed = t.completed;
        failed = t.failed;
        cancelled = t.cancelled;
        queue_depth;
        running;
        draining;
        p50_wall = percentile sorted 0.50;
        p99_wall = percentile sorted 0.99;
        max_wall = t.max_wall;
        uptime_seconds = Unix.gettimeofday () -. t.started_at;
        fallbacks =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.fallbacks []
          |> List.sort compare;
        shed = t.shed;
        eco_warm_hits = t.eco_warm_hits;
        eco_cold_fallbacks = t.eco_cold_fallbacks;
        cache_evictions = 0;
        integrity_failures = t.integrity_failures;
      })
