(* Remaining work and current rate live in an all-float record, which
   OCaml stores unboxed: settling and re-rating write them in place
   without allocating. *)
type progress = { mutable remaining : float; mutable rate : float }

type 'a task = {
  payload : 'a;
  p : progress;
  finished : unit Ivar.t;
  mutable live : bool;
}

type 'a change = Joined of 'a task | Left of 'a task

type 'a t = {
  sim : Sim.t;
  name : string;
  rerate : 'a t -> unit;
  mutable tasks : 'a task array; (* live tasks in [0, n), insertion order *)
  mutable n : int;
  mutable last_settle : Time.t;
  mutable timer : Sim.handle option;
  mutable argmin : int; (* index of the task the armed timer completes *)
  mutable fire : unit -> unit; (* the timer's callback, one closure per set *)
  mutable rev_changes : 'a change list; (* membership deltas since last rerate *)
}

(* Ordering rules that keep completions and rates bit-identical to a
   list-based set (newest task first), which is the reference the tests
   race this implementation against:
   - every change cancels and re-arms the timer, so the new timer takes a
     fresh event sequence number;
   - the timer completes the task with the smallest ETA, ties going to the
     newest task, then the ε-sweep completes tasks newest first;
   - the settle and rate arithmetic is per task, so its order is free. *)

let[@inline] payload task = task.payload

let[@inline] rate task = task.p.rate

let is_done task = not task.live

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

let active t =
  let rec from i acc = if i < 0 then acc else from (i - 1) (t.tasks.(i) :: acc) in
  from (t.n - 1) []

(* Advance every live task by its rate over the elapsed interval. *)
let settle t =
  let now = Sim.now t.sim in
  let dt = Time.to_sec_f (Time.diff now t.last_settle) in
  if dt > 0.0 then
    for i = 0 to t.n - 1 do
      let p = t.tasks.(i).p in
      p.remaining <- Float.max 0.0 (p.remaining -. (p.rate *. dt))
    done;
  t.last_settle <- now

let complete t task =
  if task.live then begin
    task.live <- false;
    t.rev_changes <- Left task :: t.rev_changes
  end;
  ignore (Ivar.fill_if_empty task.finished ())

let changes t = List.rev t.rev_changes

(* The rerate policy consumes the change log exactly once: it is cleared
   as soon as the callback returns, so an incremental policy that keeps
   per-resource task registries in sync never sees a delta twice. *)
let run_rerate t =
  t.rerate t;
  t.rev_changes <- []

(* A task is done when its remaining work is negligible relative to the
   unit scale; the argmin task forced below guarantees progress despite
   floating-point drift. *)
let eps = 1e-6

(* Complete every task with negligible work left, newest first, then
   close the gaps in place. *)
let sweep t =
  for i = t.n - 1 downto 0 do
    let task = t.tasks.(i) in
    if task.live && task.p.remaining <= eps then complete t task
  done;
  let live = ref 0 in
  for i = 0 to t.n - 1 do
    let task = t.tasks.(i) in
    if task.live then begin
      if !live < i then t.tasks.(!live) <- task;
      incr live
    end
  done;
  t.n <- !live

let reschedule t =
  (match t.timer with
  | Some h ->
    Sim.cancel t.sim h;
    t.timer <- None
  | None -> ());
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
  if !best >= 0 then
    t.timer <- Some (Sim.schedule t.sim ~after:(Time.of_sec_f (Float.max 0.0 !best_eta)) t.fire)

(* Every change settles first and ends here. *)
let finish_change t =
  sweep t;
  run_rerate t;
  reschedule t

(* Rates were constant since the timer was armed, and any membership
   change since would have re-armed it, so [argmin] still indexes the task
   that has run out of work (modulo rounding): force it, then sweep any
   ties. *)
let on_timer t =
  t.timer <- None;
  settle t;
  let argmin = t.tasks.(t.argmin) in
  if argmin.live then begin
    argmin.p.remaining <- 0.0;
    complete t argmin
  end;
  finish_change t

let create sim ~name ~rerate =
  let t =
    {
      sim;
      name;
      rerate;
      tasks = [||];
      n = 0;
      last_settle = Sim.now sim;
      timer = None;
      argmin = -1;
      fire = ignore;
      rev_changes = [];
    }
  in
  t.fire <- (fun () -> on_timer t);
  t

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
    { payload; p = { remaining = work; rate = 0.0 }; finished = Ivar.create (); live = true }
  in
  push t task;
  t.rev_changes <- Joined task :: t.rev_changes;
  finish_change t;
  task

let await task = Ivar.read task.finished

let cancel t task =
  if task.live then begin
    settle t;
    complete t task;
    finish_change t
  end

let kick t =
  settle t;
  finish_change t
