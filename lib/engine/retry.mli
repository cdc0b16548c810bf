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

val run : (attempt:int -> 'a) -> 'a * outcome
(** [run f] calls [f ~attempt:1]; on an exception it sleeps the backoff
    and tries again until {!max_attempts} tries have failed, then
    re-raises the last exception. Must be called from inside a fiber. *)
