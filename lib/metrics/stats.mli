(** Small numeric helpers for repeated measurements. *)

val mean : float list -> float
(** Raises [Invalid_argument] on an empty list. *)

val minimum : float list -> float
(** The paper reports best-of-three for its timing tables. *)

val maximum : float list -> float

val stddev : float list -> float
(** Population standard deviation; 0.0 on a singleton list. *)

val percentile : float -> float list -> float
(** [percentile p l] is the nearest-rank p-th percentile of [l]: the
    smallest sample value with at least [p]% of the sample at or below
    it ([p = 0] yields the minimum, [p = 100] the maximum, so the result
    is always an actual sample). Raises [Invalid_argument] on an empty
    list or [p] outside [0, 100]. *)

val percentile_sorted : float -> float array -> float
(** [percentile_sorted p a] is {!percentile} over an array already sorted
    ascending, for callers that sort once and read several percentiles;
    [nan] when [a] is empty. Raises [Invalid_argument] on [p] outside
    [0, 100]. *)

val best_of : int -> (unit -> float) -> float
(** [best_of n f] runs [f] n times and returns the smallest result. *)
