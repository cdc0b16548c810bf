(* Fixed-capacity time-series ring for flow telemetry.

   One ring per monitored series (a link's utilization, a queue depth, a
   tenant's throughput). Pushing overwrites the oldest sample once the
   ring is full, so retention is bounded by construction; the windowed
   aggregates answer "over the last N samples" queries without keeping
   history proportional to run length. [push] is allocation-free — the
   sampler calls it once per series per tick for the whole run. *)

type t = {
  data : float array;
  mutable len : int;  (* live samples, <= capacity *)
  mutable head : int;  (* next write position *)
  mutable pushed : int;  (* total samples ever pushed *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { data = Array.make capacity 0.0; len = 0; head = 0; pushed = 0 }

let length t = t.len

let pushed t = t.pushed

(* Index of the [i]-th live sample, oldest first. *)
let nth_index t i =
  let cap = Array.length t.data in
  (t.head - t.len + i + (2 * cap)) mod cap

let push t v =
  let cap = Array.length t.data in
  t.data.(t.head) <- v;
  t.head <- (t.head + 1) mod cap;
  if t.len < cap then t.len <- t.len + 1;
  t.pushed <- t.pushed + 1

(* The window is [t.len - n .. t.len - 1], oldest first; the push drops
   its oldest sample, at [t.len - n], and adds [v]. *)
let push_changes t ~n v =
  if n <= 0 then invalid_arg "Ring: window must be positive";
  let changed = t.len < n || not (Float.equal v t.data.(nth_index t (t.len - n))) in
  push t v;
  changed

let last t =
  if t.len = 0 then None
  else Some t.data.((t.head - 1 + Array.length t.data) mod Array.length t.data)

(* The last [n] samples (all when [n] is absent or exceeds the length). *)
let window_len t = function
  | None -> t.len
  | Some n -> if n <= 0 then invalid_arg "Ring: window must be positive" else Stdlib.min n t.len

let fold ?n f init t =
  let w = window_len t n in
  let acc = ref init in
  for i = t.len - w to t.len - 1 do
    acc := f !acc t.data.(nth_index t i)
  done;
  !acc

let mean ?n t =
  let w = window_len t n in
  if w = 0 then nan else fold ?n ( +. ) 0.0 t /. float_of_int w

let max ?n t = if window_len t n = 0 then nan else fold ?n Float.max neg_infinity t

(* Copies and sorts the window (on-demand cost, not paid by the push
   path; a caller keeping a windowed percentile re-reads it only when
   [push_changes] says the window changed). *)
let percentile ?n t p =
  let w = window_len t n in
  let a = Array.init w (fun i -> t.data.(nth_index t (t.len - w + i))) in
  Array.sort Float.compare a;
  Ninja_metrics.Stats.percentile_sorted p a

let to_list t = List.init t.len (fun i -> t.data.(nth_index t i))
