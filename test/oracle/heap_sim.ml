(* A scheduled event is its own cancellation handle. *)
type event = { run : unit -> unit; mutable cancelled : bool }

type handle = event

type t = {
  mutable now : Time.t;
  mutable seq : int;
  queue : event Pheap.t;
  prng : Prng.t;
  mutable n_events : int;
  mutable next_fiber : int;
  fibers : (int, string) Hashtbl.t; (* live (spawned, not yet finished): id -> name *)
}

exception Deadlock of string list

type _ Effect.t +=
  | Sleep : t * Time.span -> unit Effect.t
  | Suspend : t * ((unit -> unit) -> unit) -> unit Effect.t

let create ?(seed = 1L) () =
  {
    now = Time.zero;
    seq = 0;
    queue = Pheap.create ();
    prng = Prng.create ~seed;
    n_events = 0;
    next_fiber = 0;
    fibers = Hashtbl.create 64;
  }

let now t = t.now

let prng t = t.prng

let events_processed t = t.n_events

let schedule_at t at run =
  if Time.(at < t.now) then invalid_arg "Sim.schedule_at: time is in the past";
  let ev = { run; cancelled = false } in
  Pheap.add t.queue ~key:(Time.to_int at) ~seq:t.seq ev;
  t.seq <- t.seq + 1;
  ev

let schedule t ~after run =
  let after = if Time.is_negative after then Time.zero else after in
  schedule_at t (Time.add t.now after) run

let cancel ev = ev.cancelled <- true

(* The per-fiber effect handler. [Suspend]'s register function receives a
   resume callback that is idempotent: only its first invocation schedules
   the continuation, so primitives may safely keep stale wakeup references
   (e.g. a timeout racing a fill). *)
let run_fiber t id body =
  let open Effect.Deep in
  let finish () = Hashtbl.remove t.fibers id in
  match_with body ()
    {
      retc = (fun () -> finish ());
      exnc = (fun e -> finish (); raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sleep (st, d) ->
            Some
              (fun (k : (a, _) continuation) ->
                ignore (schedule st ~after:d (fun () -> continue k ())))
          | Suspend (st, register) ->
            Some
              (fun (k : (a, _) continuation) ->
                let fired = ref false in
                let resume () =
                  if not !fired then begin
                    fired := true;
                    ignore (schedule st ~after:Time.zero (fun () -> continue k ()))
                  end
                in
                register resume)
          | _ -> None);
    }

let spawn t ?(name = "fiber") body =
  let id = t.next_fiber in
  t.next_fiber <- id + 1;
  Hashtbl.add t.fibers id name;
  ignore (schedule t ~after:Time.zero (fun () -> run_fiber t id body))

(* These are meaningful only inside a fiber; performing an effect outside
   one raises [Effect.Unhandled], which surfaces as a programming error. *)
let sleep_on t d = Effect.perform (Sleep (t, d))

let suspend_on t register = Effect.perform (Suspend (t, register))

(* Fibers always run under a handler whose simulation is the one that
   spawned them, so we can recover [t] from the effect payload; the public
   API threads it implicitly via these wrappers. The ambient simulation
   lives in domain-local storage, not a global ref, so independent
   simulations can run concurrently on different domains (one simulation
   per domain) without observing each other. *)
let current_sim : t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let get_current () =
  match Domain.DLS.get current_sim with
  | Some t -> t
  | None -> failwith "Sim: blocking call outside of a running simulation"

let sleep d = sleep_on (get_current ()) d

let suspend register = suspend_on (get_current ()) register

(* The one event loop both entry points share: pop and execute events
   whose timestamp is at most [limit]. Every event of this loop runs under
   [t] as the ambient simulation, so it is set once here, not per event;
   a nested drain of another simulation restores it on the way out. *)
let drain t ~limit =
  let q = t.queue in
  let rec loop () =
    if not (Pheap.is_empty q) then begin
      let k = Pheap.min_key q in
      if k <= limit then begin
        let ev = Pheap.pop q in
        if not ev.cancelled then begin
          t.now <- Time.ns k;
          t.n_events <- t.n_events + 1;
          ev.run ()
        end;
        loop ()
      end
    end
  in
  let saved = Domain.DLS.get current_sim in
  Domain.DLS.set current_sim (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_sim saved) loop

let run t =
  drain t ~limit:max_int;
  if Hashtbl.length t.fibers > 0 then begin
    let stuck =
      Hashtbl.fold (fun id name acc -> Printf.sprintf "%s#%d" name id :: acc) t.fibers []
    in
    raise (Deadlock (List.sort String.compare stuck))
  end

let run_until t limit =
  drain t ~limit:(Time.to_int limit);
  t.now <- Time.max t.now limit
