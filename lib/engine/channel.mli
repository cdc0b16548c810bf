(** Unbounded FIFO message queue between fibers.

    Senders never block; receivers block while the queue is empty. Used by
    the fault-tolerant runtime ([Ft_runtime]) for its progress mailbox. *)

type 'a t

val create : unit -> 'a t

val send : 'a t -> 'a -> unit

val recv : 'a t -> 'a
(** Blocks until a message is available. Competing receivers are served in
    arrival order. *)

val try_recv : 'a t -> 'a option

val is_empty : 'a t -> bool
