(** Fixed-size domain pool for farming out independent simulations.

    A pool owns [size - 1] worker domains plus the submitting domain
    itself: {!await} and {!map} make the caller execute queued tasks
    while it waits ("helping"), so nested fan-out — a pooled task that
    itself calls {!map} on the same pool — cannot deadlock and a pool of
    size [n] really uses [n] cores.

    Tasks must be self-contained: each one typically creates, runs and
    tears down its own {!Sim.t}. The simulation kernel keeps no ambient
    simulation (each fiber's handler knows its own), so any number of
    simulations may run concurrently, one per domain.

    Determinism: {!map} returns results in submission order regardless
    of completion order, so a parallel sweep over deterministic
    simulations produces output byte-identical to the serial sweep. *)

type t

type 'a future

val create : ?size:int -> unit -> t
(** [size] (default {!Domain.recommended_domain_count}, clamped to at
    least 1) is the number of domains that execute tasks, counting the
    caller. [size = 1] spawns no worker domains at all: everything runs
    in the submitting domain, inside {!await}. *)

val size : t -> int

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task. It runs on any pool domain (or on a caller stuck in
    {!await}); exceptions it raises are caught and re-raised by
    {!await}. *)

val await : t -> 'a future -> 'a
(** Block until the future resolves, executing other queued tasks while
    waiting. Re-raises (with its original backtrace) if the task
    failed. Do not call from inside a running simulation event. *)

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map pool ~f xs] submits [f x] for every element up front, then
    awaits them in order: results line up with [xs] whatever the
    completion order. If several tasks fail, the exception of the
    earliest submitted one wins. *)

val shutdown : t -> unit
(** Stop and join the worker domains once the queue drains. Idempotent.
    Submitting to a shut-down pool raises [Invalid_argument]. *)

val with_pool : ?size:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception-safe. *)
