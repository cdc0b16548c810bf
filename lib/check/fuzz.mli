(** Fuzzing campaigns: generate, run, shrink.

    A campaign draws [n] scenarios from the context's seed, runs each
    under {!Runner} (domain-parallel when the context carries a pool —
    submission order is preserved, so parallel campaigns report the same
    failures as serial ones), then greedily shrinks every failure to a
    smaller scenario that still fails. Shrinking re-runs candidate
    scenarios serially under a bounded budget. *)

type failure = {
  index : int;  (** 0-based index of the scenario in the campaign *)
  result : Runner.result;  (** the original failing run *)
  shrunk : Runner.result option;  (** smaller still-failing repro, if found *)
}

type summary = {
  total : int;
  passed : int;
  crashed : int;
  events : int;  (** probe events observed across all runs *)
  failures : failure list;
}

val generate : seed:int64 -> n:int -> Scenario.t list
(** The deterministic scenario stream: [n] draws from a fresh PRNG. *)

val shrink_result : ?budget:int -> Runner.result -> Runner.result option
(** Greedy shrink of a failing result: repeatedly take the first
    simplification candidate that still fails, spending at most
    [budget] (default 60) runs. [None] if the input passes or no
    candidate fails. *)

val campaign :
  Ninja_engine.Run_ctx.t ->
  n:int ->
  ?plant:Scenario.plant ->
  ?topology:Ninja_hardware.Topology.t ->
  ?strategy:Ninja_planner.Solver.t ->
  ?mode:Ninja_vmm.Migration.mode ->
  ?shrink:bool ->
  unit ->
  summary
(** Run a campaign of [n] scenarios seeded from the context. [plant]
    installs that planted bug (see {!Runner}) into every scenario;
    [topology] forces every scenario onto the given datacenter topology
    (clamping fleet size and memory to fit it); [strategy] pins every
    scenario to one planner strategy (the CI strategy matrix);
    [mode] pins every scenario to one migration mode (by default
    scenarios keep their generated mix, roughly one-in-three postcopy);
    [shrink] (default true) controls counterexample minimisation. *)

val repro_of : failure -> string
(** The replay file for a failure (the shrunk scenario when available),
    with the violations appended as comments. *)

val pp_summary : Format.formatter -> summary -> unit
