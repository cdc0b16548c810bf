(** The continuous control plane: a long-running, sim-time migration
    service.

    Everything else in the repo is one-shot — plan a batch, fence, migrate,
    exit. This service runs for the whole simulation: an open-loop arrival
    stream ({!Ninja_workloads.Arrivals}) submits {!Request}s; an admission
    controller bounds each tenant's queue; a dispatcher fiber serves the
    per-tenant weighted-fair queues ({!Fair_queue}) under a bounded
    in-flight batch budget; each admitted batch claims its VM/host
    footprint ({!Locks}) so concurrent plans never overlap, then executes
    through the existing pipeline — placement
    ({!Ninja_scheduler.Placement.pack_least_loaded}), plan construction
    ({!Ninja_planner.Plan.of_assignment}), strategy solving
    ({!Ninja_planner.Solver}) and the fault-aware fiber executor
    ({!Ninja_planner.Executor}).

    Each batch runs inside its own keyed SymVirt-style fence (a
    [Fence_enter] probe with an [id]): the batch's VMs are paused, bypass
    devices detached, migrated, re-equipped for wherever they landed (an
    HCA on IB-equipped hosts) and resumed. A failed batch rolls every VM back to
    its origin — VMs stranded by a dead node are excused with a
    [Migrate_giveup] probe, exactly like {!Ninja_core.Ninja} — and
    the request is re-queued until its attempt budget runs out, so faults
    delay requests rather than lose them.

    Telemetry: every decision lands in the service's {!Ninja_telemetry.Metrics}
    registry ([ctl.*] counters, queue-depth gauge/histogram, request
    latency / queue-wait / batch-makespan / VM-downtime histograms) and is
    mirrored on the probe bus ([Stat] probes) so an attached
    {!Ninja_telemetry.Recorder} exports the same numbers; every terminal
    request additionally emits a [Request_done] probe carrying its
    tenant, outcome and deadline fate, which is what the
    live flow monitor's SLO accounting consumes; each
    request gets a span track ([controlplane]/[req-NNN]) with its queued
    interval and execution window.

    Determinism: one service per simulation, all decisions taken in
    deterministic DES order from seeded PRNGs — equal seeds give equal
    request logs, outcomes and metrics. *)

open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_telemetry

type tenant_spec = {
  name : string;
  weight : float;
  vms : Vm.t list;
  traffic : Ninja_planner.Cost_model.traffic;
      (** the tenant's steady-state VM-to-VM demand (see
          {!Ninja_workloads.Traffic}); empty when unknown *)
}
(** The VMs a tenant owns; weights shape the fair queues. A VM may appear
    in at most one tenant. *)

type swap_pricing =
  | Declared  (** price against the tenants' declared traffic matrices *)
  | Learned
      (** price against the matrix the [learned_traffic] hook currently
          estimates from observed flow samples
          ({!Ninja_telemetry.Flowmon} via
          {!Ninja_workloads.Traffic.of_observations}); falls back to the
          declared matrices while the estimate is still empty *)

val swap_pricing_of_string : string -> (swap_pricing, string) result

type config = {
  strategy : Ninja_planner.Solver.t;
  mode : Migration.mode;
      (** copy strategy stamped on every request; postcopy requests
          commit their switchovers and cannot be rolled back to source *)
  max_inflight : int;  (** concurrent batch plans; >= 1 *)
  queue_cap : int;  (** admission bound per tenant queue *)
  max_defers : int;
      (** capacity/lock deferrals before Dropped. Kept as a field so that
          a [{ default_config with ... }] expression setting the other six
          stays legal: one listing every field is a useless [with]
          (warning 23). *)
  auto_swap : swap_pricing option;
      (** run the online destination-swap policy: whenever the dispatcher
          wakes with no swap outstanding, price every VM pair against the
          selected traffic matrix and submit the best improving exchange
          as a [Swap] request (see {!propose_swap}); [None] disables *)
  learned_traffic : (unit -> Ninja_planner.Cost_model.traffic) option;
      (** the observation hook [Learned] pricing reads — wired by the
          harness to a flow monitor's current estimate; consulted afresh
          on every proposal round so estimates sharpen as samples
          accumulate *)
}

(** The service's settings. What the service does not let a caller set
    is fixed: a request is Failed after 3 rolled-back dispatch attempts;
    plan steps and rollback migrations retry on the one
    {!Ninja_engine.Retry} schedule; the executor runs at most 4
    migrations per node. *)

val default_config : config
(** Grouped strategy, precopy mode, 2 batches in flight, queue cap 8,
    25 deferrals, no auto-swap. *)

type reject_reason = Unknown_tenant | Queue_full
type drop_reason = Deadline_missed | No_feasible_placement

type outcome =
  | Completed
  | Rejected of reject_reason  (** refused at admission *)
  | Dropped of drop_reason  (** left the queue unserved: expired, or unplaceable *)
  | Failed of string  (** every dispatch attempt rolled back *)

val outcome_name : outcome -> string

type t

val create : Cluster.t -> config:config -> tenants:tenant_spec list -> unit -> t
(** Registers the tenants (plus an implicit VM-less ["ops"] tenant for
    operator requests, unless one is supplied) and spawns the dispatcher
    fiber — create the service before running the simulation. *)

val boot_tenants :
  ?traffic:Ninja_workloads.Traffic.pattern ->
  Cluster.t ->
  tenants:(string * float) list ->
  vms_per_tenant:int ->
  mem_bytes:float ->
  tenant_spec list
(** Convenience harness: boots [vms_per_tenant] VMs per (name, weight)
    tenant, round-robin over the cluster's alive nodes under their memory
    capacity, attaching a VMM-bypass HCA on IB-equipped hosts. [traffic]
    draws each tenant a seeded matrix of the given pattern (from a
    dedicated split of the sim's PRNG; tenants without traffic leave the
    stream untouched). Raises [Failure] when the VMs do not fit. *)

val fits : Cluster.t -> vms:int -> mem_bytes:float -> bool
(** Whether {!boot_tenants} can place [vms] VMs of [mem_bytes] each on
    the cluster's alive nodes. *)

val vms : t -> Vm.t list
(** Every managed VM, sorted by name — the checker's watch list. *)

val metrics : t -> Metrics.t

(** {1 Feeding requests} *)

val make :
  t ->
  tenant:string ->
  kind:Request.kind ->
  ?priority:Request.priority ->
  ?deadline:Time.span ->
  unit ->
  Request.t
(** Allocate the next request id, stamped with the current sim time and
    the service config's mode. *)

val inject : t -> after:Time.span -> (t -> Request.t) -> unit
(** Submit one constructed request after a delay (a registered feeder, so
    the dispatcher outlives it). *)

val open_loop : t -> process:Ninja_workloads.Arrivals.process -> horizon:float -> unit
(** Spawn the open-loop source: arrival instants drawn over [horizon]
    seconds from now, one request submitted at each, drawn from the
    built-in mix (tenant placement changes plus operator
    evacuations/failovers) on the service's PRNG stream. May be called
    several times to overlay sources. *)

val propose_swap : t -> bool
(** One round of the online destination-swap policy: price every
    same-fabric-class pair of movable VMs (not lost, on a live host,
    unlocked) against the configured traffic matrix — declared, or the
    learned estimate under [Learned] pricing — and submit the most
    improving exchange as a [Low]-priority [Swap] request, owned by the
    pair's tenant when both VMs share one and by ["ops"] otherwise —
    [true] if one was submitted, [false] when no exchange pays for its
    migrations within the horizon (counted as [ctl.swap.noop]). Called
    automatically by the dispatcher under [auto_swap]; harmless to call
    directly. Pricing is one {!Ninja_planner.Swap_price.best} scan over
    every managed VM at its current host, the kernel the batch [Swap]
    strategy also climbs with; its gains are bit-identical to pricing
    each pair from scratch. Telemetry: [ctl.swap.proposed]/[ctl.swap.gain]
    here, [ctl.swap.applied]/[ctl.swap.rolled_back] when the batch
    settles. *)

(** {1 Results} *)

val submitted : t -> int

val outcomes : t -> (Request.t * outcome) list
(** In completion order. *)

val count : t -> string -> float
(** A counter/gauge value from the service registry, 0 when absent. *)

val log : t -> string list
(** The request log, one deterministic line per transition. *)

val quiesced : t -> bool
(** No feeders, no queued requests, no batch in flight. *)

val accounting : t -> (unit, string) result
(** Every submitted request reached exactly one terminal outcome and
    nothing is still queued or in flight — the no-stranded-requests
    invariant. *)

val latency_percentiles : t -> (float * float * float) option
(** Nearest-rank (p50, p95, p99) of completed-request latency seconds. *)
