(** Simulated time.

    All simulation timestamps and durations are expressed as signed integer
    counts of nanoseconds (an immediate 63-bit [int], so storing one never
    allocates). Timestamps ([t]) are nanoseconds since the start of the
    simulation; durations ([span]) are nanosecond differences. Keeping both
    as integers makes event ordering exact and the simulation bit-for-bit
    deterministic. *)

type t [@@immediate]
(** An absolute simulated timestamp (ns since simulation start). *)

type span = t
(** A duration. Shares the representation of [t]; the two are distinguished
    only by the function signatures below. *)

val zero : t

val ns : int -> span
val us : int -> span
val ms : int -> span
val sec : int -> span
val minutes : int -> span

val of_sec_f : float -> span
(** [of_sec_f s] is the span closest to [s] seconds, clamped to about
    ±95 years (±3e18 ns). Raises [Invalid_argument] if [s] is not
    finite. *)

val to_sec_f : t -> float
val to_ns : t -> int64

val to_int : t -> int
(** Nanoseconds as a plain [int], e.g. for a heap key; {!ns} is the
    inverse. *)

val add : t -> span -> t
(** Saturates at the representable range (about ±146 years) instead of
    wrapping: only a sum of two clamped spans can get there. *)

val diff : t -> t -> span
val mul : span -> int -> span
val scale : span -> float -> span

val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val is_negative : span -> bool

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit, e.g. ["3.88s"],
    ["29.91ms"], ["250ns"]. *)
