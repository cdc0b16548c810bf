(** Sets of tasks that progress at externally assigned rates.

    A [Rated.t] tracks tasks with a remaining amount of work (in arbitrary
    units) each progressing at a rate (units per simulated second) that a
    user-supplied [rerate] policy reassigns whenever the set changes. This
    is the common core of processor-sharing CPUs ({!Ps_resource}) and
    max–min fair network fabrics ({!Ninja_flownet.Fabric}): both only
    differ in their rate-assignment policy.

    Between events rates are constant, so completions can be scheduled
    exactly; on any membership or capacity change the set is settled
    (remaining work advanced), re-rated, and the next completion is
    re-scheduled. *)

type 'a t

type 'a task

type 'a change = Joined of 'a task | Left of 'a task

val create : Sim.t -> name:string -> rerate:('a t -> unit) -> 'a t
(** [rerate] assigns rates with {!set_rate}; it is called with the set
    already settled to the current instant. A global policy re-rates every
    active task; an incremental policy may consult {!changes} and leave
    unaffected tasks' rates untouched. *)

val changes : 'a t -> 'a change list
(** Membership deltas since the previous [rerate] call, oldest first —
    only meaningful from within the [rerate] callback (the log is cleared
    when it returns). A task added and completed within one change shows
    up as [Joined] then [Left]. *)

val add : 'a t -> payload:'a -> work:float -> 'a task
(** Register a new task (non-blocking). [work] must be non-negative; a
    zero-work task completes at the next instant. *)

val await : 'a task -> unit
(** Block the calling fiber until the task completes (or is cancelled). *)

val cancel : 'a t -> 'a task -> unit
(** Remove a task before completion; its waiters are woken. No-op if the
    task already completed. *)

val kick : 'a t -> unit
(** Settle, re-rate and re-schedule after an external change the set
    cannot observe (e.g. a capacity update). *)

val active : 'a t -> 'a task list
(** Active (incomplete) tasks, in insertion order. Builds a fresh list;
    hot paths iterate with {!length} and {!get} instead. *)

val length : 'a t -> int
(** Number of active tasks. *)

val get : 'a t -> int -> 'a task
(** [get t i] is the [i]-th active task in insertion order, for
    [0 <= i < length t]; raises [Invalid_argument] otherwise. Indices shift
    when a task completes. *)

val payload : 'a task -> 'a

val rate : 'a task -> float

val set_rate : 'a task -> float -> unit
(** Only meaningful from within the [rerate] callback. Rates must be
    non-negative and finite. *)

val set_rates : 'a task array -> Float.Array.t -> int -> unit
(** [set_rates tasks rates n] sets the first [n] tasks' rates from [rates]
    without boxing a float per task, even where {!set_rate} is not
    inlined. *)

val is_done : 'a task -> bool
