(** Discrete-event simulation kernel.

    A simulation owns a virtual clock, an event queue and a set of fibers
    (lightweight processes implemented with OCaml 5 effects). Fibers run
    code that blocks on simulated conditions — {!sleep}, {!suspend}, and
    everything the higher-level primitives ({!Ivar}, {!Channel},
    {!Semaphore}, {!Ps_resource}) build on top of them.

    Determinism: events fire in (time, scheduling order): events
    scheduled for the same instant fire in the order they were scheduled,
    and a fiber wakeup is itself an event, so wakeup order is
    deterministic too. No wall-clock time is consulted anywhere.

    The queue has two parts. An event scheduled for the current instant
    (every {!spawn}, every {!suspend} resume, a zero {!sleep}) joins a
    FIFO; a later one joins a binary heap. Every heap entry keyed at the
    current instant was scheduled before the clock reached it, so the
    heap's entries at [now] run before the FIFO, and the clock advances to
    the heap's minimum only once the FIFO is empty. Only a live event
    moves the clock: a cancelled event leaves the heap at once, so it can
    never set [now].

    A [Rated] set defers its re-rate and re-arm to one {e quiet} flush
    per instant, and keeps the order of the eager re-arm it replaces with
    three entry points: {!reserve} takes the sequence number a timer
    scheduled at the set's last change would have taken, {!arm_at} arms
    the timer later under that number, and {!requeue} moves the flush to
    the FIFO's tail, where an eager zero-span timer would have sat. So the
    rule is still: events run in (key, seq) order, FIFO entries in
    scheduling order, as if every timer had been scheduled at the last
    change before it.

    A fiber waits for one thing at a time, so it owns one event, which
    every {!sleep} and every {!suspend} resume re-arms where a freshly
    scheduled event would go, and one effect handler, built when it
    starts: a wait allocates neither an event nor a closure of the
    kernel's.

    Domain-safety: {!sleep} and {!suspend} consult no ambient state —
    the handler of the calling fiber knows its simulation — so
    independent simulations may run concurrently, one per domain (see
    {!Pool}). A single [t] must still only ever be driven from one domain
    at a time. *)

type t

type handle
(** A cancellable reference to a scheduled event. *)

exception Deadlock of string list
(** Raised by {!run} when the event queue drains while named fibers are
    still suspended — i.e. the modelled system has deadlocked. The payload
    lists the names of the stuck fibers. *)

val create : ?seed:int64 -> unit -> t
(** A fresh simulation at time zero. [seed] (default 1) initialises the
    simulation's PRNG. *)

val now : t -> Time.t

val prng : t -> Prng.t

val events_processed : t -> int
(** Number of events executed so far (a cheap progress / cost metric).
    Cancelled events are not counted. *)

val pending : t -> int
(** Events scheduled and neither fired nor cancelled yet. *)

val heap_insertions : t -> int
(** Events that entered the heap so far, rather than the same-instant
    FIFO (a cost counter). A {!reserve}d number that no event takes is
    not counted. *)

(** {1 Scheduling raw events} *)

val schedule : t -> after:Time.span -> (unit -> unit) -> handle
(** Run a thunk [after] from now. Negative spans are clamped to zero. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** Run a thunk at an absolute time, which must not be in the past. *)

val cancel : t -> handle -> unit
(** [cancel t h] cancels the event [h], which [t] scheduled. A future
    event leaves the heap in O(log n); a same-instant one is marked and
    skipped when the FIFO reaches it. Cancelling a fired or
    already-cancelled event is a no-op. To re-arm a timer, cancel it and
    schedule a new event: that event takes a fresh place in scheduling
    order. Never cancel a {!requeue}d event. *)

(** {1 Reusable events}

    What a set that re-arms its timer and flush at every change needs, so
    that re-arming allocates nothing. *)

val event : (unit -> unit) -> handle
(** An unscheduled event that {!arm_at} and {!requeue} can schedule again
    and again, each time it has fired or been cancelled. *)

val reserve : t -> int
(** A sequence number taken now: an event later armed with it orders among
    same-key heap entries as if it had been scheduled at this point. *)

val arm_at : t -> handle -> Time.t -> seq:int -> unit
(** [arm_at t ev at ~seq] schedules the unscheduled event [ev] at [at],
    which must be after [now], under the {!reserve}d [seq]. It counts in
    {!pending} and {!heap_insertions} like any heap entry. *)

val requeue : t -> handle -> unit
(** Queue the event quietly at the current instant's FIFO tail: it counts
    in neither {!events_processed} nor {!pending}. A quiet event already
    queued moves to the tail (the drain skips the copy left behind), or
    stays if it is the tail already. *)

val count_event : t -> unit
(** Count, in {!events_processed}, an event that runs inline instead of
    through the queue (a zero-span timer run by its set's flush). *)

(** {1 Fibers} *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a new fiber at the current instant. The body runs under the
    simulation's effect handler; any exception it raises aborts the whole
    simulation run with that exception. *)

val sleep : Time.span -> unit
(** Block the calling fiber for a simulated duration, as if it were an
    event scheduled with {!schedule}. Called outside every fiber (before
    a simulation runs, or from a raw event), it raises
    [Failure "Sim: blocking call outside of a running simulation"]. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] blocks the calling fiber and calls
    [register resume]. The first [resume ()] queues the fiber at the
    current instant, behind every event already queued for it, exactly as
    {!schedule} [~after:Time.zero] would. Calling [resume] again is
    harmless, and so is a callback kept from an earlier wait: only the
    first call of the wait it was made for counts. Outside every fiber it
    raises like {!sleep}. This is the single primitive from which all
    blocking abstractions are built. *)

(** {1 Running} *)

val run : t -> unit
(** Execute events until the queue is empty. Raises {!Deadlock} if fibers
    remain suspended afterwards, listing them as ["name#id"], sorted. *)

val run_until : t -> Time.t -> unit
(** Execute events with timestamps [<=] the given time, then set the clock
    to exactly that time. A time before [now t] runs nothing, not even the
    events already due at [now t], and leaves the clock where it is.
    Suspended fibers are not an error here — the simulation can be resumed
    with further [run_until]/[run] calls. *)
