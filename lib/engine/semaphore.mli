(** Counting semaphore for fibers.

    Waiters are granted permits in FIFO order. Also usable as a mutex
    (capacity 1) and, via {!with_permit}, as a scoped critical section. *)

type t

val create : int -> t
(** [create n] has [n] permits initially. [n] must be non-negative. *)

val acquire : t -> unit
(** Blocks until a permit is available, then takes it. *)

val release : t -> unit

val try_acquire : t -> bool

val available : t -> int

val with_permit : t -> (unit -> 'a) -> 'a
(** Acquire, run, release (also on exception). *)
