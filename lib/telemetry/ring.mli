(** Fixed-capacity time-series rings with windowed aggregates.

    The retention layer of the flow monitor ({!Flowmon}): one ring per
    monitored series, each holding the last [capacity] samples. Pushing
    is allocation-free; once full, the oldest sample is overwritten, so
    memory is bounded regardless of run length. The aggregates
    ([mean]/[max]/[percentile]) answer sliding-window queries — "p95 link
    utilization over the last N ticks" — on demand. A {!windowed} ring
    also keeps one window sorted as it is pushed, so a percentile over it
    ({!window_percentile}) reads one element. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val windowed : capacity:int -> window:int -> t
(** A ring that keeps its last [window] samples sorted: each {!push}
    removes the sample that left that window and inserts the one that
    entered, in place and in O([window]). The sorted copy is allocated
    the first time the window holds two different values and never
    again, so a series that never changes never allocates one. Raises [Invalid_argument] when
    [capacity < 1] or [window] is outside [1, capacity]. *)

val length : t -> int
(** Live samples currently retained ([<= capacity]). *)

val pushed : t -> int
(** Total samples ever pushed (retained or overwritten). *)

val push : t -> float -> unit
(** Allocation-free; overwrites the oldest sample when full. O(1), or
    O([window]) on a {!windowed} ring whose window holds two values. *)

val repeat_last : t -> int -> unit
(** [repeat_last t k] pushes the newest sample [k] more times: the state
    [k] pushes of it would leave, at the cost of at most [capacity]
    pushes. Does nothing on an empty ring or when [k <= 0]. *)

val uniform : t -> bool
(** On a {!windowed} ring: every sample in the kept window equals the
    newest, so pushing the newest again changes no aggregate over the
    window. (Always [true] on a ring that keeps no window.) *)

val window_percentile : t -> float -> float
(** The nearest-rank p-th percentile of a {!windowed} ring's kept window
    (the last [window] samples), bit-identical to
    [percentile ~n:window]; [nan] when empty. O(1). Raises
    [Invalid_argument] when [p] is outside [0, 100] or the ring keeps no
    window. *)

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
    sampler. Raises [Invalid_argument] when [p] is outside [0, 100]. *)

val to_list : t -> float list
(** Retained samples, oldest first (for tests and reports). *)
