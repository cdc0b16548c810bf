(** Imperative binary min-heap, specialised for the event queue.

    Elements are ordered by an [int] primary key (timestamp) with an [int]
    tiebreaker (insertion sequence number), so that events scheduled for the
    same instant fire in FIFO order — the property the simulator relies on
    for determinism. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val add : 'a t -> key:int -> seq:int -> 'a -> unit

val pop : 'a t -> 'a
(** Removes and returns the minimum element. Raises [Not_found] if the heap
    is empty. *)

val min_key : 'a t -> int
(** Key of the minimum element, without removing it or allocating. Raises
    [Not_found] if the heap is empty. *)
