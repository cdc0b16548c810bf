(** Fiber-based plan executor.

    Runs a solved plan inside the simulation: one fiber per step, each
    blocking on the completion of its dependencies, then on per-host
    concurrency permits (4 migrations may touch a node at once — a
    migration holds a permit on both its source and destination, acquired
    in node-id order so permit waits can never cycle). Steps execute as a
    TCP [migrate] through the VM's QEMU monitor, exactly as the per-VM
    SymVirt agents do, and the executor records per-step timing so
    experiments can report makespan, per-step latency and aggregate
    downtime.

    Failures are recoverable: a step that errors is re-attempted on the
    {!Ninja_engine.Retry} schedule, a step whose destination node has
    died is handed to the [reroute] replanner for a live substitute, and
    a step that still cannot complete is recorded without blocking its
    dependents — every completion ivar is filled on success and failure
    alike, so an injected fault can never deadlock the executor. Terminal
    failures surface as {!Step_failed} raised from the calling fiber
    after all steps settle (never from inside a step fiber, which would
    abort the simulation). *)

open Ninja_engine
open Ninja_hardware
open Ninja_vmm

type step_result = {
  step : Plan.step;
      (** the step as executed — its [dst] reflects any reroute *)
  started : Time.t;
  finished : Time.t;
  stats : Migration.stats;
}

type report = {
  started : Time.t;
  finished : Time.t;
  makespan : Time.span;  (** first step release to last step completion *)
  total_downtime : Time.span;  (** sum of per-step stop-and-copy pauses *)
  total_wire_bytes : float;
  step_results : step_result list;  (** in completion order *)
  retries : int;  (** re-attempts (including reroutes) across all steps *)
  retry_delay : Time.span;  (** total backoff slept between attempts *)
  permits_leaked : int;
      (** per-host permits not returned by completion; always 0 — reported
          so tests can assert the invariant under injected faults *)
}

exception
  Step_failed of { step_id : int; vm : string; dst : string; reason : string }
(** Carries the identity of the first terminally-failed step: its plan
    step id, the VM being moved and the destination node it could not
    reach. *)

val step_mode : Migration.mode -> Plan.step -> Migration.mode
(** The mode a step actually migrates under when the caller requested
    [mode]: [Direct] steps honour the request, [Stage_out]/[Stage_in]
    hops of a broken swap cycle are always demoted to {!Migration.Precopy}
    — a postcopy switchover commits irreversibly, and committing onto a
    scratch staging node mid-chain would strand the VM there if the
    second hop never runs. *)

val run :
  Cluster.t ->
  ?mode:Migration.mode ->
  ?max_per_host:int ->
  ?run_step:(Plan.step -> Migration.stats) ->
  ?reroute:(Plan.step -> Node.t option) ->
  Plan.t ->
  report
(** Execute every step; blocks the calling fiber until the last one
    settles. Must be called from inside a fiber. The plan must be acyclic
    (checked up front, raising {!Plan.Cyclic} rather than deadlocking the
    simulation). [mode] (default [Precopy]) is the copy mode of [Direct]
    steps (see {!step_mode}). [max_per_host] (default 4) and [run_step]
    (default: a TCP [migrate] QMP command to the VM's monitor) are test
    seams, not settings: tests shrink the permits to 1 to show node-ordered
    permits cannot deadlock, and substitute a failing step. A failing step
    is re-attempted up to {!Ninja_engine.Retry.max_attempts} tries in all;
    when its destination is dead, [reroute] is asked for a replacement node
    (a [None] answer, or no [reroute], makes the failure terminal). If any
    step failed terminally, raises {!Step_failed} for the first of them
    after all steps have settled. A step that raises an exception that is
    not {!Ninja_engine.Retry.retryable} (a programming error such as
    [Invalid_argument]) is not retried: no further step starts, and once
    the started ones settle [run] re-raises it. Each attempt is a [step-N] span and
    each backoff a [backoff] span; an [executor/report] probe closes the
    run with [steps], [failures], [retries], [rerouted] and
    [permits-leaked] counts. *)

val pp_report : Format.formatter -> report -> unit
