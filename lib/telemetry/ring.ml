(* Fixed-capacity time-series ring for flow telemetry.

   One ring per monitored series (a link's utilization, a queue depth, a
   tenant's throughput). Pushing overwrites the oldest sample once the
   ring is full, so retention is bounded by construction; the windowed
   aggregates answer "over the last N samples" queries without keeping
   history proportional to run length. [push] is allocation-free — the
   sampler calls it once per series per tick for the whole run.

   A {!windowed} ring also keeps its last [window] samples
   sorted, so their percentiles read one element. A push replaces the
   sample that left the window with the one that entered, in place. While
   every sample in the window is equal (an idle link's zeros) the sorted
   copy is not kept at all: the newest sample answers every rank, and the
   array is allocated the first time the window holds two values. *)

type t = {
  data : float array;
  mutable len : int;  (* live samples, <= capacity *)
  mutable head : int;  (* next write position *)
  mutable pushed : int;  (* total samples ever pushed *)
  win : int;  (* width of the kept window; 0 when none is kept *)
  mutable sorted : float array;
      (* the window's samples ascending, first [min len win]; stale while
         [uniform] *)
  mutable uniform : bool;  (* every sample in the window equals the newest *)
}

let make ~capacity win =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { data = Array.make capacity 0.0; len = 0; head = 0; pushed = 0; win; sorted = [||];
    uniform = true }

let create ~capacity = make ~capacity 0

let windowed ~capacity ~window =
  if window < 1 || window > capacity then
    invalid_arg "Ring.windowed: window must be in [1, capacity]";
  make ~capacity window

let length t = t.len

let pushed t = t.pushed

(* Index of the [i]-th live sample, oldest first. *)
let nth_index t i =
  let cap = Array.length t.data in
  (t.head - t.len + i + (2 * cap)) mod cap

let newest t = t.data.((t.head - 1 + Array.length t.data) mod Array.length t.data)

(* Remove one [x] from the ascending prefix [0, n) of [a], which holds
   it. *)
let remove a n x =
  let i = ref 0 in
  while Float.compare a.(!i) x < 0 do
    incr i
  done;
  Array.blit a (!i + 1) a !i (n - 1 - !i)

(* Insert [v] into the ascending prefix [0, n) of [a]. *)
let insert a n v =
  let i = ref n in
  while !i > 0 && Float.compare a.(!i - 1) v > 0 do
    a.(!i) <- a.(!i - 1);
    decr i
  done;
  a.(!i) <- v

(* Update the sorted window for a push of [v], before [data] takes it. *)
let keep t v =
  let w = Stdlib.min t.len t.win in
  if not (t.uniform && (w = 0 || Float.equal v (newest t))) then begin
    if t.uniform then begin
      if Array.length t.sorted = 0 then t.sorted <- Array.make t.win 0.0;
      Array.fill t.sorted 0 w (newest t);
      t.uniform <- false
    end;
    (* A full window drops its oldest sample. *)
    let w =
      if w < t.win then w
      else begin
        remove t.sorted w t.data.(nth_index t (t.len - w));
        w - 1
      end
    in
    insert t.sorted w v;
    if Float.equal t.sorted.(0) t.sorted.(w) then t.uniform <- true
  end

let push t v =
  if t.win > 0 then keep t v;
  let cap = Array.length t.data in
  t.data.(t.head) <- v;
  t.head <- (t.head + 1) mod cap;
  if t.len < cap then t.len <- t.len + 1;
  t.pushed <- t.pushed + 1

(* Past [capacity] pushes of one value every slot holds it, so the rest
   only count. *)
let repeat_last t k =
  if t.len > 0 && k > 0 then begin
    let v = newest t in
    let writes = Stdlib.min k (Array.length t.data) in
    for _ = 1 to writes do
      push t v
    done;
    t.pushed <- t.pushed + (k - writes)
  end

let uniform t = t.uniform

let window_percentile t p =
  if t.win = 0 then invalid_arg "Ring.window_percentile: no window kept";
  let w = Stdlib.min t.len t.win in
  let i = Ninja_metrics.Stats.nearest_rank p w in
  if w = 0 then nan else if t.uniform then newest t else t.sorted.(i)

let last t = if t.len = 0 then None else Some (newest t)

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

(* Copies and sorts the window: an on-demand cost the push path does not
   pay. A percentile over the kept window is {!window_percentile}. *)
let percentile ?n t p =
  let w = window_len t n in
  let a = Array.init w (fun i -> t.data.(nth_index t (t.len - w + i))) in
  Array.sort Float.compare a;
  Ninja_metrics.Stats.percentile_sorted p a

let to_list t = List.init t.len (fun i -> t.data.(nth_index t i))
