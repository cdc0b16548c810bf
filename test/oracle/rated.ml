type 'a task = {
  payload : 'a;
  mutable remaining : float;
  mutable rate : float;
  finished : unit Ivar.t;
  mutable live : bool;
}

type 'a change = Joined of 'a task | Left of 'a task

type 'a t = {
  sim : Sim.t;
  name : string;
  rerate : 'a t -> unit;
  mutable tasks : 'a task list; (* reversed insertion order *)
  mutable last_settle : Time.t;
  mutable timer : Sim.handle option;
  mutable rev_changes : 'a change list; (* membership deltas since last rerate *)
}

let create sim ~name ~rerate =
  {
    sim;
    name;
    rerate;
    tasks = [];
    last_settle = Sim.now sim;
    timer = None;
    rev_changes = [];
  }

let payload task = task.payload

let rate task = task.rate

let is_done task = not task.live

let set_rate task r =
  if not (r >= 0.0 && Float.is_finite r) then
    invalid_arg "Rated.set_rate: rate must be non-negative and finite";
  task.rate <- r

let active t = List.rev (List.filter (fun task -> task.live) t.tasks)

(* Advance every live task by its rate over the elapsed interval. *)
let settle t =
  let now = Sim.now t.sim in
  let dt = Time.to_sec_f (Time.diff now t.last_settle) in
  if dt > 0.0 then
    List.iter
      (fun task ->
        if task.live then
          task.remaining <- Float.max 0.0 (task.remaining -. (task.rate *. dt)))
      t.tasks;
  t.last_settle <- now

let remaining t task =
  settle t;
  task.remaining

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

let rec reschedule t =
  (match t.timer with
  | Some h ->
    Sim.cancel t.sim h;
    t.timer <- None
  | None -> ());
  let next =
    List.fold_left
      (fun acc task ->
        if task.live && task.rate > 0.0 then
          let eta = task.remaining /. task.rate in
          match acc with
          | Some (best_eta, _) when best_eta <= eta -> acc
          | _ -> Some (eta, task)
        else acc)
      None t.tasks
  in
  match next with
  | None -> ()
  | Some (eta, task) ->
    let span = Time.of_sec_f (Float.max 0.0 eta) in
    t.timer <- Some (Sim.schedule t.sim ~after:span (fun () -> on_timer t task))

and on_timer t argmin =
  t.timer <- None;
  settle t;
  (* Rates were constant since scheduling, so the argmin task has run out
     of work (modulo rounding): force it, then sweep any ties. *)
  if argmin.live then begin
    argmin.remaining <- 0.0;
    complete t argmin
  end;
  List.iter (fun task -> if task.live && task.remaining <= eps then complete t task) t.tasks;
  t.tasks <- List.filter (fun task -> task.live) t.tasks;
  run_rerate t;
  reschedule t

let change t f =
  settle t;
  let result = f () in
  List.iter (fun task -> if task.live && task.remaining <= eps then complete t task) t.tasks;
  t.tasks <- List.filter (fun task -> task.live) t.tasks;
  run_rerate t;
  reschedule t;
  result

let add t ~payload ~work =
  if not (work >= 0.0 && Float.is_finite work) then
    invalid_arg (t.name ^ ": work must be non-negative and finite");
  change t (fun () ->
      let task =
        { payload; remaining = work; rate = 0.0; finished = Ivar.create (); live = true }
      in
      t.tasks <- task :: t.tasks;
      t.rev_changes <- Joined task :: t.rev_changes;
      task)

let await task = Ivar.read task.finished

let cancel t task =
  if task.live then
    change t (fun () ->
        complete t task)
