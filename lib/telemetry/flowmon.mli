(** Continuous sampled flow telemetry — the monitor that runs {e inside}
    the simulation.

    PR 5's recorder reconstructs what happened after the fact; this
    module observes it live, the way a datacenter sFlow/NetFlow pipeline
    would, and is what closes the ROADMAP loop from observation back
    into planning ("traffic matrices learned from observed flow
    telemetry rather than declared up front").

    {2 Sampling model}

    A periodic tick fiber (every [period] sim-seconds) polls
    {!Ninja_flownet.Fabric.link_utilization} on every link, pushing each
    link's series into a fixed {!Ring}, and reads the fabric's active
    flow count. Each link keeps its windowed p95 and re-sorts the window only when
    the push changed it ({!Ring.push_changes}), so an idle link — most of
    a datacenter's — costs a comparison per tick and allocates nothing.
    Inter-VM demand is sampled sFlow-style: a pair at [rate] B/s offers
    [rate*period/pkt_bytes] packets per tick, of which 1-in-[sample_rate]
    is sampled — a Poisson draw with mean
    [lambda = rate*period/(pkt_bytes*sample_rate)] from the monitor's
    private PRNG stream (split off lazily, so runs without a monitor
    keep their exact draws). Control-plane series (queue depth, per
    tenant request completions, deadline misses) arrive over the probe
    bus: {!Ninja_engine.Probe.Request_done} events and the mirrored
    ["ctl.queue.depth"] {!Ninja_engine.Probe.Stat}.

    {2 Reconstruction error}

    The estimator inverts the sampling:
    [rate ≈ samples * sample_rate * pkt_bytes / observed_seconds],
    counting only post-[warmup] samples. After observing S samples the
    relative error is ~[1/sqrt(S)] (Poisson), so a pair at 1 MB/s
    sampled 1-in-16 with 1500 B packets accumulates ≈ 42 samples/s —
    a few minutes of observation puts the estimate within a few
    percent, comfortably inside the 10% bound the tests assert.

    {2 Downstream consumers}

    {!Ninja_workloads.Traffic.of_observations} turns {!samples} into a
    canonical traffic matrix; the control plane's [auto-swap=learned]
    mode prices destination exchanges against it. The hotspot detector
    flags links whose windowed p95 utilization exceeds
    [hot_threshold * capacity] ([ctl.hotspot.*] metrics); the SLO
    monitor tracks the deadline-miss burn rate over the sliding window
    ([ctl.slo.burn.max]). {!snapshot} renders a deterministic
    Prometheus-style text exposition ([--stats]); {!report} renders the
    [top]-style end-of-run tables. *)

type config = {
  period : float;  (** sim-seconds between ticks *)
  retain : int;  (** ring capacity (samples kept per series) *)
  window : int;  (** sliding-window width (ticks) for p95 / burn rate *)
  sample_rate : int;  (** sFlow 1-in-N packet sampling *)
  pkt_bytes : float;  (** modelled mean packet size *)
  hot_threshold : float;  (** hot when windowed p95 >= threshold * capacity *)
  warmup : float;  (** seconds of samples the estimator discards *)
  snapshot_every : float;  (** seconds between {!snapshots} entries; 0 = off *)
}

val default_config : config
(** 5 s ticks, 120-sample rings, 24-tick windows, 1-in-16 sampling of
    1500 B packets, hot at 80% capacity, 60 s warm-up, snapshots off. *)

type t

val create :
  ?config:config ->
  ?registry:Metrics.t ->
  Ninja_hardware.Cluster.t ->
  traffic:(string * string * float) list ->
  t
(** Attach a monitor to the cluster's probe bus. [traffic] is the
    declared demand whose packet stream the agent samples (the ground
    truth the estimator is later judged against). [registry] receives
    the [ctl.hotspot.*] / [ctl.slo.*] / [flowmon.*] metrics — pass the
    service's registry so they land in the serve report. Raises
    [Invalid_argument] when a config field is out of range: a period or
    packet size that is not positive and finite, a hot threshold outside
    (0, 1], a window outside [1, retain], a sample rate below 1, or a
    warm-up or snapshot interval that is negative or not finite. *)

val start : t -> horizon:float -> unit
(** Spawn the tick fiber, sampling every [period] seconds until
    [horizon] sim-seconds from now (bounded, so the simulation still
    terminates). *)

val detach : t -> unit
(** Remove the bus subscriber (idempotent). *)

val ticks : t -> int

(** {1 Estimation} *)

val samples : t -> (string * string * int) list
(** Post-warmup sampled packet counts per canonical (name-ordered) VM
    pair, sorted; zero-count pairs omitted. Feed to
    {!Ninja_workloads.Traffic.of_observations} together with
    {!observed_window}. *)

val observed_window : t -> float
(** Post-warmup observed seconds (0 during warm-up). *)

val learned : t -> (string * string * float) list
(** The reconstructed traffic matrix: {!samples} scaled by the sampling
    inverse — [[]] until the warm-up has passed. Canonical, sorted. *)

(** {1 Live monitors} *)

val hotspots : t -> (string * float) list
(** Currently hot links as [(name, p95/capacity)]. *)

val burn_rate : t -> float
(** Deadline misses / terminal requests over the sliding window; 0.0
    when nothing terminated in the window. *)

val slo_attainment : t -> (string * int * int * float) list
(** Per tenant, sorted by name: (tenant, completed, deadline-missed,
    attainment fraction). Attainment is 1 - missed/terminal (1.0 with
    no terminal requests). *)

(** {1 Surfacing} *)

val snapshot : t -> string
(** A Prometheus-style text exposition of the current state
    (deterministic: fixed series order, [%g] rendering). *)

val snapshots : t -> string list
(** The periodic snapshots accumulated by the tick fiber when
    [snapshot_every > 0], in chronological order. *)

val report : ?k:int -> t -> Ninja_metrics.Table.t list
(** The [top]-style end-of-run tables: top-[k] links by mean
    utilization, top-[k] talker VM pairs (observed vs declared), and
    per-tenant SLO attainment. Default [k] is 5. *)
