(** Execute one {!Scenario} under a {!Checker}.

    Builds the cluster the scenario describes, arms its faults, boots
    the VM fleet with an MPI job, fires the scheduler trigger, runs the
    simulation to completion and reports every invariant violation the
    checker (plus the end-of-run placement checks) found. [run] never
    raises: simulation crashes become a [Crashed] outcome so a fuzzing
    campaign always completes.

    {b Planted bugs} (for harness self-tests; never generated): a
    scenario whose [plant] field is one of

    - [Skip_rollback] — force a persistent precopy abort so the
      migration rolls back, then re-apply the aborted move directly,
      bypassing both the rollback contract and the SymVirt fence (the
      bug class: a scheduler that "knows better" than the transaction);
    - [Skip_fence] — migrate a VM through the VMM layer without
      fencing the MPI job first;

    must be caught by the checker — that is the harness's own
    regression test. *)

type outcome =
  | Passed
  | Violated of Checker.violation list
  | Crashed of string  (** an exception escaped the simulation *)

type result = {
  scenario : Scenario.t;
  outcome : outcome;
  events : int;  (** probe events the checker observed *)
  sim_end : float;  (** final simulation clock, seconds *)
}

val run : ?attach:(Ninja_hardware.Cluster.t -> unit) -> Scenario.t -> result
(** [attach], when given, is called with the scenario's cluster after it
    is fully configured and before the fleet boots — a hook for extra
    probe-bus observers (e.g. a telemetry recorder under test). *)

val failed : result -> bool
(** True for [Violated] and [Crashed]. *)

val pp_result : Format.formatter -> result -> unit
