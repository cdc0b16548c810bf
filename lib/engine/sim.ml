(* A scheduled event is its own cancellation handle. [slot] is its index
   in the heap while it waits there, [in_fifo] while it waits in the
   same-instant queue, [dead] once it has fired or been cancelled (or
   before a reusable event is first armed), and [quiet ticket] while a
   quiet event waits in the FIFO at position [ticket]. *)
type event = { run : unit -> unit; mutable slot : int }

type handle = event

let in_fifo = -1

let dead = -2

let[@inline] quiet ticket = -3 - ticket

(* Fills vacated slots, so the queues hold no fired closure alive. *)
let vacant = { run = ignore; slot = dead }

(* Events after the current instant: a binary min-heap on (key, seq).
   Keys and sequence numbers sit unboxed in parallel arrays beside the
   events, and every move writes the event's new index into its [slot],
   so a cancel removes it in O(log n) instead of leaving a tombstone. *)
module Heap = struct
  type t = {
    mutable keys : int array;
    mutable seqs : int array;
    mutable evs : event array;
    mutable size : int;
  }

  let create () = { keys = [||]; seqs = [||]; evs = [||]; size = 0 }

  let[@inline] put h i key seq ev =
    Array.unsafe_set h.keys i key;
    Array.unsafe_set h.seqs i seq;
    Array.unsafe_set h.evs i ev;
    ev.slot <- i

  (* Whether the entry at [i] orders before (key, seq). *)
  let[@inline] before h i key seq =
    let k = Array.unsafe_get h.keys i in
    k < key || (k = key && Array.unsafe_get h.seqs i < seq)

  (* Sift (key, seq, ev) from the hole [i] up, or down, to its place. *)
  let rec sift_up h i key seq ev =
    let p = (i - 1) / 2 in
    if i > 0 && not (before h p key seq) then begin
      put h i (Array.unsafe_get h.keys p) (Array.unsafe_get h.seqs p) (Array.unsafe_get h.evs p);
      sift_up h p key seq ev
    end
    else put h i key seq ev

  let rec sift_down h i key seq ev =
    let l = (2 * i) + 1 in
    let c =
      if l + 1 < h.size && before h (l + 1) (Array.unsafe_get h.keys l) (Array.unsafe_get h.seqs l)
      then l + 1
      else l
    in
    if c < h.size && before h c key seq then begin
      put h i (Array.unsafe_get h.keys c) (Array.unsafe_get h.seqs c) (Array.unsafe_get h.evs c);
      sift_down h c key seq ev
    end
    else put h i key seq ev

  let add h key seq ev =
    let cap = Array.length h.keys in
    if h.size = cap then begin
      let grow a fill =
        let b = Array.make (max 64 (2 * cap)) fill in
        Array.blit a 0 b 0 cap;
        b
      in
      h.keys <- grow h.keys 0;
      h.seqs <- grow h.seqs 0;
      h.evs <- grow h.evs vacant
    end;
    h.size <- h.size + 1;
    sift_up h (h.size - 1) key seq ev

  (* Fill the hole at [i] with the last entry. *)
  let remove h i =
    let last = h.size - 1 in
    let key = h.keys.(last) and seq = h.seqs.(last) and ev = h.evs.(last) in
    h.evs.(last) <- vacant;
    h.size <- last;
    if i < last then
      if i > 0 && not (before h ((i - 1) / 2) key seq) then sift_up h i key seq ev
      else sift_down h i key seq ev

  let pop h =
    let ev = h.evs.(0) in
    remove h 0;
    ev
end

(* Events at the current instant: a growable circular FIFO, its capacity
   a power of two. [pushed] counts every push, so the entry at the head
   is push number [pushed - len]: its ticket. *)
module Fifo = struct
  type t = {
    mutable buf : event array;
    mutable head : int;
    mutable len : int;
    mutable pushed : int;
  }

  let create () = { buf = Array.make 64 vacant; head = 0; len = 0; pushed = 0 }

  let push q ev =
    let cap = Array.length q.buf in
    if q.len = cap then begin
      let buf = Array.make (2 * cap) vacant in
      for i = 0 to cap - 1 do
        buf.(i) <- q.buf.((q.head + i) land (cap - 1))
      done;
      q.buf <- buf;
      q.head <- 0
    end;
    q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- ev;
    q.len <- q.len + 1;
    q.pushed <- q.pushed + 1

  let pop q =
    let ev = q.buf.(q.head) in
    q.buf.(q.head) <- vacant;
    q.head <- (q.head + 1) land (Array.length q.buf - 1);
    q.len <- q.len - 1;
    ev
end

type t = {
  mutable now : Time.t;
  mutable seq : int; (* the next sequence number, for a heap entry or a reservation *)
  mutable n_heap : int; (* heap insertions *)
  heap : Heap.t;
  fifo : Fifo.t;
  prng : Prng.t;
  mutable n_events : int;
  mutable n_pending : int;
  mutable next_fiber : int;
  fibers : (int, string) Hashtbl.t; (* live (spawned, not yet finished): id -> name *)
}

exception Deadlock of string list

type _ Effect.t +=
  | Sleep : Time.span -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let create ?(seed = 1L) () =
  {
    now = Time.zero;
    seq = 0;
    n_heap = 0;
    heap = Heap.create ();
    fifo = Fifo.create ();
    prng = Prng.create ~seed;
    n_events = 0;
    n_pending = 0;
    next_fiber = 0;
    fibers = Hashtbl.create 64;
  }

let now t = t.now

let prng t = t.prng

let events_processed t = t.n_events

let pending t = t.n_pending

let heap_insertions t = t.n_heap

(* An event at [now] was scheduled after every heap entry keyed [now]
   (those were scheduled before the clock got here), so queueing it behind
   them keeps the (key, seq) order without a sequence number. *)
let enqueue t at ev =
  if Time.equal at t.now then begin
    ev.slot <- in_fifo;
    Fifo.push t.fifo ev
  end
  else begin
    Heap.add t.heap (Time.to_int at) t.seq ev;
    t.seq <- t.seq + 1;
    t.n_heap <- t.n_heap + 1
  end;
  t.n_pending <- t.n_pending + 1

let schedule_at t at run =
  if Time.(at < t.now) then invalid_arg "Sim.schedule_at: time is in the past";
  let ev = { run; slot = in_fifo } in
  enqueue t at ev;
  ev

let[@inline] deadline t after = Time.add t.now (if Time.is_negative after then Time.zero else after)

let schedule t ~after run = schedule_at t (deadline t after) run

let event run = { run; slot = dead }

let reserve t =
  let seq = t.seq in
  t.seq <- seq + 1;
  seq

let arm_at t ev at ~seq =
  if not Time.(at > t.now) then invalid_arg "Sim.arm_at: time is not in the future";
  if ev.slot <> dead then invalid_arg "Sim.arm_at: event already scheduled";
  Heap.add t.heap (Time.to_int at) seq ev;
  t.n_heap <- t.n_heap + 1;
  t.n_pending <- t.n_pending + 1

(* A copy left behind by an earlier re-queue keeps its old ticket, which
   no longer matches the event's slot, so the drain skips it. *)
let requeue t ev =
  let q = t.fifo in
  if not (q.len > 0 && ev.slot = quiet (q.pushed - 1)) then begin
    ev.slot <- quiet q.pushed;
    Fifo.push q ev
  end

let count_event t = t.n_events <- t.n_events + 1

let cancel t ev =
  if ev.slot <> dead then begin
    if ev.slot >= 0 then Heap.remove t.heap ev.slot;
    ev.slot <- dead;
    t.n_pending <- t.n_pending - 1
  end

(* A fiber waits for one thing at a time, so it owns one event, which
   starts it and then carries each wake-up, armed at the place a freshly
   scheduled event would take; and one handler, built when it starts.
   Between [effc] and the handler's function, [wait] holds the effect
   being handled, so nothing of it is kept; while the fiber waits, [k]
   holds the rest of it. *)
type fiber = {
  sim : t;
  id : int;
  mutable body : unit -> unit; (* until the fiber starts *)
  mutable k : (unit, unit) Effect.Deep.continuation option;
  mutable wait : unit Effect.t;
  mutable ev : event; (* [vacant] until [spawn] makes it *)
}

let idle = Sleep Time.zero

let finish fb = Hashtbl.remove fb.sim.fibers fb.id

let start fb =
  let body = fb.body in
  fb.body <- ignore;
  match body () with
  | () -> finish fb
  | exception e ->
    finish fb;
    raise e

(* A [Suspend]'s resume callback: only the first call of the wait it was
   made for queues the fiber, at the FIFO tail like any event scheduled
   for now, so a primitive may keep a stale callback (a timeout racing a
   fill). [k] still holds this wait's continuation until the event fires,
   and the event is dead only until that first call. *)
let resume fb k = if fb.k == k && fb.ev.slot = dead then enqueue fb.sim fb.sim.now fb.ev

let on_wait fb k =
  let wait = fb.wait in
  fb.wait <- idle;
  match wait with
  | Sleep d ->
    fb.k <- Some k;
    enqueue fb.sim (deadline fb.sim d) fb.ev
  | Suspend register ->
    let k = Some k in
    fb.k <- k;
    register (fun () -> resume fb k)
  | _ -> assert false

let handler fb =
  let on_wait = Some (on_wait fb) in
  {
    Effect.Deep.retc = ignore;
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Sleep _ ->
          fb.wait <- eff;
          on_wait
        | Suspend _ ->
          fb.wait <- eff;
          on_wait
        | _ -> None);
  }

let step fb =
  match fb.k with
  | Some k ->
    fb.k <- None;
    Effect.Deep.continue k ()
  | None -> Effect.Deep.match_with start fb (handler fb)

let spawn t ?(name = "fiber") body =
  let id = t.next_fiber in
  t.next_fiber <- id + 1;
  Hashtbl.add t.fibers id name;
  let fb = { sim = t; id; body; k = None; wait = idle; ev = vacant } in
  fb.ev <- { run = (fun () -> step fb); slot = dead };
  enqueue t t.now fb.ev

(* Fibers run under a handler that knows their simulation, so a blocking
   call consults no ambient state, and simulations on different domains
   never observe each other. Outside every fiber no handler takes the
   effect. *)
let outside () = failwith "Sim: blocking call outside of a running simulation"

let sleep d = try Effect.perform (Sleep d) with Effect.Unhandled _ -> outside ()

let suspend register = try Effect.perform (Suspend register) with Effect.Unhandled _ -> outside ()

let fire t ev =
  ev.slot <- dead;
  t.n_pending <- t.n_pending - 1;
  t.n_events <- t.n_events + 1;
  ev.run ()

(* The one event loop both entry points share: execute events whose
   timestamp is at most [limit], in (key, seq) order. At an instant the
   heap's entries keyed [now] go first, then the FIFO; only then does the
   clock move to the heap's minimum. *)
let drain t ~limit =
  let h = t.heap and q = t.fifo in
  let rec loop () =
    let now = Time.to_int t.now in
    if h.size > 0 && h.keys.(0) <= limit && (q.len = 0 || h.keys.(0) = now) then begin
      t.now <- Time.ns h.keys.(0);
      fire t (Heap.pop h);
      loop ()
    end
    else if q.len > 0 && now <= limit then begin
      let ticket = q.pushed - q.len in
      let ev = Fifo.pop q in
      if ev.slot = in_fifo then fire t ev
      else if ev.slot = quiet ticket then begin
        ev.slot <- dead;
        ev.run ()
      end;
      loop ()
    end
  in
  loop ()

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
