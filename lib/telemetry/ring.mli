(** Fixed-capacity time-series rings with windowed aggregates.

    The retention layer of the flow monitor ({!Flowmon}): one ring per
    monitored series, each holding the last [capacity] samples. Pushing
    is O(1) and allocation-free; once full, the oldest sample is
    overwritten, so memory is bounded regardless of run length. The
    aggregates ([mean]/[max]/[percentile]) answer sliding-window queries
    — "p95 link utilization over the last N ticks" — on demand. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val length : t -> int
(** Live samples currently retained ([<= capacity]). *)

val pushed : t -> int
(** Total samples ever pushed (retained or overwritten). *)

val push : t -> float -> unit
(** O(1), allocation-free; overwrites the oldest sample when full. *)

val push_changes : t -> n:int -> float -> bool
(** [push], then whether the window of the last [n] samples changed as a
    multiset: [false] exactly when the window was already full and the
    sample it dropped is [Float.equal] to the one pushed. Every windowed
    aggregate is a function of that multiset, so a caller can keep one
    (a {!percentile} or a {!max}) and recompute it only on [true].
    Allocation-free. Raises [Invalid_argument] when [n <= 0]. *)

val last : t -> float option
(** Most recent sample. *)

val fold : ?n:int -> ('a -> float -> 'a) -> 'a -> t -> 'a
(** Fold oldest-first over the last [n] samples (default: all retained).
    Raises [Invalid_argument] when [n <= 0]. *)

val mean : ?n:int -> t -> float
(** Mean of the last [n] samples; [nan] when empty. *)

val max : ?n:int -> t -> float
(** Maximum of the last [n] samples; [nan] when empty. *)

val percentile : ?n:int -> t -> float -> float
(** [percentile t p] is the nearest-rank p-th percentile of the last [n]
    samples ({!Ninja_metrics.Stats.percentile_sorted}); [nan] when empty.
    Copies and sorts the window, so the cost lands on the reader, not the
    sampler; {!push_changes} tells a reader that keeps the value when it
    is stale. Raises [Invalid_argument] when [p] is outside [0, 100]. *)

val to_list : t -> float list
(** Retained samples, oldest first (for tests and reports). *)
