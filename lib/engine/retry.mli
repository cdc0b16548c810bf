(** The retry schedule of every recoverable simulated operation.

    One fixed schedule: {!max_attempts} tries in all, with an exponential
    backoff between them — 100 ms after the first failure, doubling per
    attempt, capped at 5 s. There is no jitter and no deadline, so a retry
    sequence is a pure function of the failures and can be asserted
    against by tests. The Ninja migrate flow, the plan executor and the
    control plane's rollback all retry on it. *)

val max_attempts : int
(** 3: total tries including the first. *)

val backoff : attempt:int -> Time.span
(** Backoff slept after failed attempt number [attempt] (1-based):
    [100 ms * 2^(attempt-1)], capped at 5 s. *)

type outcome = {
  attempts : int;  (** attempts actually made (>= 1) *)
  delay_total : Time.span;  (** total backoff slept between attempts *)
}

val retryable : exn -> bool
(** Whether an exception is a failure worth retrying. [Invalid_argument],
    [Assert_failure] and [Match_failure] are programming errors: no retry
    can mend them, so every retry loop re-raises them at once and the run
    ends. Anything else ([Failure] included) is retryable. *)

val run : (attempt:int -> 'a) -> 'a * outcome
(** [run f] calls [f ~attempt:1]; on a {!retryable} exception it sleeps
    the backoff and tries again until {!max_attempts} tries have failed,
    then re-raises the last exception. Any other exception is re-raised
    at once. Must be called from inside a fiber. *)
