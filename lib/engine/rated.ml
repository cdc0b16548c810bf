(* Remaining work and current rate live in an all-float record, which
   OCaml stores unboxed: settling and re-rating write them in place
   without allocating. *)
type progress = { mutable remaining : float; mutable rate : float }

type 'a task = {
  payload : 'a;
  p : progress;
  finished : unit Ivar.t;
  mutable live : bool;
  set : 'a t; (* so that reading a rate can run a pending policy *)
}

and 'a change = Joined of 'a task | Left of 'a task

and 'a t = {
  sim : Sim.t;
  name : string;
  rerate : 'a t -> unit;
  mutable tasks : 'a task array; (* live tasks in [0, n), insertion order *)
  mutable n : int;
  mutable holes : int; (* completed tasks still in [0, n) *)
  mutable last_settle : Time.t;
  mutable unswept : bool; (* settle advanced work since the last full sweep *)
  mutable stale : bool; (* changed since the policy last ran *)
  mutable seq : int; (* reserved at the last change, for the re-armed timer *)
  mutable argmin : int; (* index of the task the armed timer completes *)
  mutable timer : Sim.handle; (* the completion timer, re-armed by the flush *)
  mutable flush : Sim.handle; (* the policy and re-arm, once per instant *)
  mutable rev_changes : 'a change list; (* membership deltas since the policy last ran *)
  mutable rerates : int;
}

(* Ordering rules that keep completions and rates bit-identical to a
   list-based set (newest task first) that re-rates and re-arms at every
   change, which is the reference the tests race this implementation
   against:
   - a change settles and sweeps at once, cancels the timer and reserves
     the sequence number the eager re-arm would have taken; the policy and
     the re-arm wait for the flush, which every change moves to the FIFO
     tail, where the eager zero-span timer would have sat;
   - the timer completes the task with the smallest ETA, ties going to the
     newest task, then the ε-sweep completes tasks newest first;
   - the settle and rate arithmetic is per task, so its order is free. *)

(* Stands for the timer and flush of a set that has not changed yet. It
   is never armed, so sets on every domain may share it. *)
let unarmed = Sim.event ignore

let[@inline] payload task = task.payload

let is_done task = not task.live

let rerates t = t.rerates

(* The policy consumes the change log exactly once: it is cleared as soon
   as the callback returns, so an incremental policy that keeps
   per-resource task registries in sync never sees a delta twice. *)
let run_policy t =
  t.stale <- false;
  t.rerates <- t.rerates + 1;
  t.rerate t;
  t.rev_changes <- []

(* Runs the policy at most once per change, however many readers ask. *)
let[@inline] refresh t = if t.stale then run_policy t

let[@inline] rate task =
  refresh task.set;
  task.p.rate

(* Inlined, so a caller's freshly computed rate is stored without being
   boxed for the call. *)
let[@inline] set_rate task r =
  if not (r >= 0.0 && Float.is_finite r) then
    invalid_arg "Rated.set_rate: rate must be non-negative and finite";
  task.p.rate <- r

let set_rates tasks rates n =
  for i = 0 to n - 1 do
    set_rate tasks.(i) (Float.Array.get rates i)
  done

let length t = t.n

let[@inline] get t i =
  if i < 0 || i >= t.n then invalid_arg "Rated.get: index out of bounds";
  Array.unsafe_get t.tasks i

(* Advance every live task by its rate over the elapsed interval. The
   clock moves only once the FIFO, and so every flush, has run, so the
   rates are the policy's. *)
let settle t =
  let now = Sim.now t.sim in
  let dt = Time.to_sec_f (Time.diff now t.last_settle) in
  if dt > 0.0 && t.n > 0 then begin
    for i = 0 to t.n - 1 do
      let p = t.tasks.(i).p in
      p.remaining <- Float.max 0.0 (p.remaining -. (p.rate *. dt))
    done;
    t.unswept <- true
  end;
  t.last_settle <- now

let complete t task =
  if task.live then begin
    task.live <- false;
    t.holes <- t.holes + 1;
    t.rev_changes <- Left task :: t.rev_changes
  end;
  ignore (Ivar.fill_if_empty task.finished ())

let changes t = List.rev t.rev_changes

(* A task is done when its remaining work is negligible relative to the
   unit scale; the argmin task forced below guarantees progress despite
   floating-point drift. *)
let eps = 1e-6

(* Complete every task with negligible work left, newest first. Only a
   settle that advanced work can bring an older task down to ε: after a
   sweep every live task has more left. *)
let sweep t =
  t.unswept <- false;
  for i = t.n - 1 downto 0 do
    let task = t.tasks.(i) in
    if task.live && task.p.remaining <= eps then complete t task
  done

(* Close the gaps completed tasks left, in place. *)
let compact t =
  if t.holes > 0 then begin
    let live = ref 0 in
    for i = 0 to t.n - 1 do
      let task = t.tasks.(i) in
      if task.live then begin
        if !live < i then t.tasks.(!live) <- task;
        incr live
      end
    done;
    t.n <- !live;
    t.holes <- 0
  end

(* The eager end of every change, after settle and sweep: the policy is
   due, the armed timer is stale, and the flush moves to the FIFO tail. A
   set's first change gives it its two events. *)
let rec changed t =
  if t.flush == unarmed then begin
    t.timer <- Sim.event (fun () -> on_timer t);
    t.flush <- Sim.event (fun () -> flush t)
  end
  else Sim.cancel t.sim t.timer;
  t.stale <- true;
  t.seq <- Sim.reserve t.sim;
  Sim.requeue t.sim t.flush

(* Rates were constant since the timer was armed, and any change since
   would have cancelled it, so [argmin] still indexes the task that has
   run out of work (modulo rounding): force it, then sweep any ties. *)
and on_timer t =
  settle t;
  let argmin = t.tasks.(t.argmin) in
  if argmin.live then begin
    argmin.p.remaining <- 0.0;
    complete t argmin
  end;
  if t.unswept then sweep t;
  compact t;
  changed t

(* Once per instant per changed set, at the last change's FIFO slot: run
   the policy if no reader has yet, and re-arm the timer under the
   sequence number reserved at that change. A timer due within the
   instant would have been the FIFO entry this flush stands in, so it
   runs here, as the event it would have been. *)
and flush t =
  refresh t;
  let best = ref (-1) and best_eta = ref 0.0 in
  for i = t.n - 1 downto 0 do
    let p = t.tasks.(i).p in
    if p.rate > 0.0 then begin
      let eta = p.remaining /. p.rate in
      if !best < 0 || not (!best_eta <= eta) then begin
        best := i;
        best_eta := eta
      end
    end
  done;
  t.argmin <- !best;
  if !best >= 0 then begin
    let span = Time.of_sec_f (Float.max 0.0 !best_eta) in
    if Time.equal span Time.zero then begin
      Sim.count_event t.sim;
      on_timer t
    end
    else Sim.arm_at t.sim t.timer (Time.add (Sim.now t.sim) span) ~seq:t.seq
  end

let create sim ~name ~rerate =
  {
    sim;
    name;
    rerate;
    tasks = [||];
    n = 0;
    holes = 0;
    last_settle = Sim.now sim;
    unswept = false;
    stale = false;
    seq = 0;
    argmin = -1;
    timer = unarmed;
    flush = unarmed;
    rev_changes = [];
    rerates = 0;
  }

let push t task =
  if t.n = Array.length t.tasks then begin
    let grown = Array.make (max 8 (2 * t.n)) task in
    Array.blit t.tasks 0 grown 0 t.n;
    t.tasks <- grown
  end;
  t.tasks.(t.n) <- task;
  t.n <- t.n + 1

let add t ~payload ~work =
  if not (work >= 0.0 && Float.is_finite work) then
    invalid_arg (t.name ^ ": work must be non-negative and finite");
  settle t;
  let task =
    {
      payload;
      p = { remaining = work; rate = 0.0 };
      finished = Ivar.create ();
      live = true;
      set = t;
    }
  in
  push t task;
  t.rev_changes <- Joined task :: t.rev_changes;
  (* Unless settle advanced work, only the new task can be down to ε. *)
  if t.unswept then sweep t else if work <= eps then complete t task;
  compact t;
  changed t;
  task

let await task = Ivar.read task.finished

let cancel t task =
  if task.live then begin
    settle t;
    complete t task;
    if t.unswept then sweep t;
    compact t;
    changed t
  end
