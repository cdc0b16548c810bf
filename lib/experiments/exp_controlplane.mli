(** Control-plane experiment: the long-running migration service under an
    open-loop Poisson request stream, swept over arrival rate × planner
    strategy. Reports the request SLO table (throughput by outcome,
    latency percentiles, aggregate fenced VM downtime) with the protocol
    invariant checker attached; any violation shows up in the last
    column, and a stranded request fails the experiment outright.

    {!serve} is the one assembly of a served simulation; [ninja_sim
    serve] runs it once per seed. *)

val learned_traffic :
  Ninja_telemetry.Flowmon.config ->
  Ninja_telemetry.Flowmon.t ->
  unit ->
  Ninja_planner.Cost_model.traffic
(** The [Learned] swap-pricing hook of a flow monitor created with the
    given config: its sampled pair counts inverted into a traffic matrix
    ({!Ninja_workloads.Traffic.of_observations}), [[]] during warm-up. *)

type served = {
  service : Ninja_controlplane.Service.t;
  flowmon : Ninja_telemetry.Flowmon.t option;
  violations : Ninja_check.Checker.violation list;
}
(** A finished served simulation; the checker and the monitor are
    detached. *)

val serve :
  Ninja_engine.Run_ctx.t ->
  ?traffic:Ninja_workloads.Traffic.pattern ->
  ?flowmon:Ninja_telemetry.Flowmon.config ->
  tenants:int ->
  vms_per_tenant:int ->
  mem_gb:float ->
  config:Ninja_controlplane.Service.config ->
  process:Ninja_workloads.Arrivals.process ->
  duration:float ->
  unit ->
  served
(** Serve [process] for [duration] simulated seconds on a fresh cluster
    of the context, under the protocol invariant checker, and run to
    quiescence. [tenants] tenants named [t0], [t1], ... (weights cycle
    3:2:1) each boot [vms_per_tenant] VMs of [mem_gb] GB, drawing
    [traffic] matrices when given. [flowmon] arms a flow monitor with
    that config on the service's registry, sampling for [duration]; when
    [config.auto_swap] is [Some Learned], [config.learned_traffic] is
    replaced by the monitor's {!learned_traffic} hook. *)

val run : Ninja_engine.Run_ctx.t -> Ninja_metrics.Table.t list
