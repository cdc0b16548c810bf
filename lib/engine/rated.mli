(** Sets of tasks that progress at externally assigned rates.

    A [Rated.t] tracks tasks with a remaining amount of work (in arbitrary
    units) each progressing at a rate (units per simulated second) that a
    user-supplied [rerate] policy reassigns whenever the set changes. This
    is the common core of processor-sharing CPUs ({!Ps_resource}) and
    max–min fair network fabrics ({!Ninja_flownet.Fabric}): both only
    differ in their rate-assignment policy.

    Between events rates are constant, so completions can be scheduled
    exactly. A change ({!add}, {!cancel} or a completion timer firing)
    has an eager part and a deferred one. At once the set is
    settled (remaining work advanced), tasks out of work complete, and
    the armed completion timer is cancelled. The policy and the timer's
    re-arm run once per instant, in one {e flush} per set that every
    change moves to the tail of the same-instant FIFO: many changes at
    one instant cost one re-rate. Reading a rate ({!rate}, or a caller's
    own reader through {!refresh}) runs a pending policy first.

    Order rule: events run exactly as if the set re-rated and re-armed at
    every change. The re-armed timer takes the sequence number
    ({!Sim.reserve}) reserved at the set's last change, and a timer due
    within the instant (its ETA rounds to 0 ns) runs inline at the flush,
    which sits at the last change's FIFO slot, counted as one event; the
    flush itself counts as none. *)

type 'a t

type 'a task

type 'a change = Joined of 'a task | Left of 'a task

val create : Sim.t -> name:string -> filler:'a -> log:bool -> rerate:('a t -> unit) -> 'a t
(** [rerate] assigns rates with {!set_rate}; it is called with the set
    already settled to the current instant, at most once per change and
    at most once per flush. Its result must depend only on the set's
    membership, since every change is a membership delta. A global policy
    re-rates every active task; an incremental policy creates its set with
    [~log:true] and consults {!iter_changes} to leave unaffected tasks'
    rates untouched. A set created with [~log:false] records no delta.
    [filler] is a payload no task carries: it fills the set's free slots
    (see {!filler}), so a finished task is never kept alive by the set.
    Creating a set allocates no event: its timer and flush come with its
    first change. *)

val iter_changes : 'a t -> ('a change -> unit) -> unit
(** [iter_changes t f] calls [f] on every membership delta since the
    previous [rerate] call, oldest first, over however many changes that
    call covers — only meaningful from within the [rerate] callback of a
    set created with [~log:true] (the log is cleared when it returns). A
    task added and completed between two calls shows up as [Joined] then
    [Left]. *)

val filler : 'a t -> 'a task
(** A finished task that is never a member of the set, whose payload is
    [create]'s [filler] (made at its first use): what fills the set's
    free slots, and what a policy may fill its own scratch arrays with. *)

val refresh : 'a t -> unit
(** Run the policy now if a change since its last run is pending: the
    read barrier for a caller that reads rates, or state its policy
    keeps, other than through {!rate}. The timer's re-arm still waits for
    the flush. *)

val rerates : 'a t -> int
(** How many times the policy has run (a cost counter). *)

val add : 'a t -> payload:'a -> work:float -> 'a task
(** Register a new task (non-blocking). [work] must be non-negative. A
    task with at most 1e-6 units of work (zero included) completes
    within [add]: {!is_done} holds and its waiters are woken before
    [add] returns, before any event runs. *)

val await : 'a task -> unit
(** Block the calling fiber until the task completes (or is cancelled). *)

val cancel : 'a t -> 'a task -> unit
(** Remove a task before completion; its waiters are woken. No-op if the
    task already completed. *)

val length : 'a t -> int
(** Number of active tasks. *)

val get : 'a t -> int -> 'a task
(** [get t i] is the [i]-th active task in insertion order, for
    [0 <= i < length t]; raises [Invalid_argument] otherwise. Indices shift
    when a task completes. *)

val payload : 'a task -> 'a

val rate : 'a task -> float
(** The task's current rate, running its set's pending policy first. *)

val set_rate : 'a task -> float -> unit
(** Only meaningful from within the [rerate] callback. Rates must be
    non-negative and finite. *)

val set_rates : 'a task array -> Float.Array.t -> int -> unit
(** [set_rates tasks rates n] sets the first [n] tasks' rates from [rates]
    without boxing a float per task, even where {!set_rate} is not
    inlined. *)

val is_done : 'a task -> bool
