(** Discrete-event simulation kernel.

    A simulation owns a virtual clock, an event queue and a set of fibers
    (lightweight processes implemented with OCaml 5 effects). Fibers run
    code that blocks on simulated conditions — {!sleep}, {!suspend}, and
    everything the higher-level primitives ({!Ivar}, {!Channel},
    {!Semaphore}, {!Ps_resource}) build on top of them.

    Determinism: events scheduled for the same instant fire in the order
    they were scheduled; a fiber wakeup is itself an event, so wakeup order
    is deterministic too. No wall-clock time is consulted anywhere.

    Domain-safety: the ambient simulation that {!sleep} and {!suspend}
    consult is domain-local, so independent simulations may run
    concurrently, one per domain (see {!Pool}). A single [t] must still
    only ever be driven from one domain at a time. *)

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
(** Number of events executed so far (a cheap progress / cost metric). *)

(** {1 Scheduling raw events} *)

val schedule : t -> after:Time.span -> (unit -> unit) -> handle
(** Run a thunk [after] from now. Negative spans are clamped to zero. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** Run a thunk at an absolute time, which must not be in the past. *)

val cancel : handle -> unit
(** Cancelling a fired or already-cancelled event is a no-op. *)

(** {1 Fibers} *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a new fiber at the current instant. The body runs under the
    simulation's effect handler; any exception it raises aborts the whole
    simulation run with that exception. *)

val sleep : Time.span -> unit
(** Block the calling fiber for a simulated duration. Must be called from
    inside a fiber. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] blocks the calling fiber and calls
    [register resume]. The fiber resumes (as a fresh event at the instant
    of the call) when [resume ()] is invoked. Calling [resume] more than
    once is harmless: only the first call counts. This is the single
    primitive from which all blocking abstractions are built. *)

(** {1 Running} *)

val run : t -> unit
(** Execute events until the queue is empty. Raises {!Deadlock} if fibers
    remain suspended afterwards. *)

val run_until : t -> Time.t -> unit
(** Execute events with timestamps [<=] the given time, then set the clock
    to exactly that time. Suspended fibers are not an error here — the
    simulation can be resumed with further [run_until]/[run] calls. *)
