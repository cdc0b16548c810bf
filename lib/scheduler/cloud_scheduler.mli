(** The cloud scheduler of Fig. 3: it owns migration policy and delivers
    trigger events to the MPI runtime and the SymVirt controller (both via
    {!Ninja_core.Ninja.migrate}).

    Triggers fire at scheduled simulation times. Each computes a placement
    with {!Placement}, turns it into a batch migration plan via
    {!Ninja_planner} (capacity conflicts and swap cycles become dependency
    edges; the configured {!Ninja_planner.Solver} strategy — [grouped] by
    default — shapes the parallelism and, for placement-aware strategies
    such as [swap], may re-aim destinations against the tenant traffic
    matrix), executes the plan inside the SymVirt fence window, and
    records the overhead breakdown plus the per-step executor report in
    the history. *)

open Ninja_engine
open Ninja_hardware
open Ninja_metrics
open Ninja_core
open Ninja_planner

type trigger =
  | Maintenance of { avoid : Node.t -> bool }
      (** Evacuate VMs from nodes matching [avoid] (non-stop maintenance,
          §II-A). *)
  | Disaster of { rack : int }
      (** Evacuate a whole rack/data-center (disaster recovery, §II-A). *)
  | Consolidate of { vms_per_host : int; targets : Node.t list }
      (** Pack VMs for utilisation (server consolidation, §II-A). *)
  | Rebalance of { targets : Node.t list }
      (** Spread back out, e.g. after maintenance ends. *)

type record = {
  at : Time.t;
  trigger : trigger;
  breakdown : Breakdown.t;
  report : Executor.report option;
      (** Per-step plan execution report ([None] only if the migration
          phase never ran). *)
}

type t

val create :
  ?strategy:Solver.t ->
  ?mode:Ninja_vmm.Migration.mode ->
  ?traffic:Cost_model.traffic ->
  Ninja.t ->
  t
(** [strategy] defaults to {!Ninja_planner.Solver.default} ([grouped]);
    [mode] (default [Precopy]) is the copy strategy every triggered
    migration uses — under [Postcopy], a step whose switchover has
    committed is never rerouted (its memory is split across two hosts),
    and a source death mid-drain surfaces as the
    {!Ninja_core.Ninja.Lost} outcome;
    [traffic] (default empty) is the tenant traffic matrix
    placement-aware strategies price placements against. The executor's
    per-step re-attempts and the migrate flow's per-phase re-attempts
    both follow the one {!Ninja_engine.Retry} schedule, and at most 4
    migrations touch one node at once (the {!Ninja_planner.Executor}
    permit count).
    When a plan step's destination dies, the scheduler reroutes it to the
    first live free node the trigger's placement policy accepts (e.g. not
    an avoided node during maintenance) rather than aborting the
    trigger; candidates come from the cluster's indexed free-memory
    registry, not a scan over every node. *)

val execute : t -> trigger -> Breakdown.t
(** Run the migration now (must be called from a fiber). *)

val schedule : t -> after:Time.span -> trigger -> unit
(** Fire-and-forget: deliver the trigger after a delay. *)

val history : t -> record list
(** Executed triggers, oldest first. *)

val trigger_name : trigger -> string
