(** Open-loop arrival processes.

    An open-loop source emits requests at instants drawn from a stochastic
    process, independent of how fast the system drains them — the standard
    way to expose a service to overload. Two primitive shapes ship, plus
    composition:

    - [Poisson] — memoryless arrivals at a given mean rate (exponential
      inter-arrival gaps), the baseline traffic model;
    - [Bursts] — a trace-shaped pattern: every [period] seconds a burst of
      [size] arrivals lands, each jittered uniformly over [spread] seconds
      (a maintenance window, a failover storm);
    - [Overlay] — the superposition of several processes (e.g. a Poisson
      background plus an hourly evacuation burst).

    All draws come from the caller's {!Ninja_engine.Prng.t}, so a seeded
    run reproduces its arrival trace exactly. *)

open Ninja_engine

type process =
  | Poisson of { rate : float }  (** mean arrivals per second; 0 = silent *)
  | Bursts of { period : float; size : int; spread : float }
      (** [size] arrivals every [period] s, jittered over [spread] s *)
  | Overlay of process list

val validate : process -> (unit, string) result
(** Checks rates are non-negative, periods positive, sizes non-negative,
    spreads within the period, and overlays non-empty. *)

val times : Prng.t -> process -> horizon:float -> float list
(** The arrival instants in [\[0, horizon)], sorted ascending. Draw order
    is fixed by the process structure, so equal seeds give equal traces.
    Raises [Invalid_argument] when {!validate} would fail. *)
