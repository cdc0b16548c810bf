(** Explicit per-run context.

    Everything that configures one experiment run — PRNG seed, quick vs
    full-scale parameters, armed fault specs, output sinks, and the
    optional domain pool for point-grid sweeps — travels in a single
    immutable value, created once at the entry point (CLI, bench, test)
    and threaded through every layer. Nothing here is global: two
    contexts can drive two simulations concurrently on different domains
    without sharing any mutable state.

    Determinism: a context fixes a run completely. Two runs under equal
    contexts produce identical tables, and {!map} preserves submission
    order, so sweeping a grid through a pool is byte-identical to the
    serial sweep. *)

type mode = Quick | Full
(** [Quick] shrinks sizes/iterations so the whole suite stays
    test-speed; [Full] reproduces the paper's parameters. *)

type sink = string -> unit
(** Receives self-contained chunks (a rendered trace timeline, a CSV
    table), each in one call. Pooled work run under {!buffered} reaches
    the sink on the submitting domain, in submission order. *)

type t = {
  seed : int64;  (** seeds every simulation the run creates *)
  mode : mode;
  faults : string list;
      (** textual fault specs in the [Ninja_faults.Injector] grammar,
          armed on every cluster the run creates; validated upstream *)
  topology : string option;
      (** textual topology spec in the [Ninja_hardware.Topology] grammar;
          when set, experiment clusters are built from the generated
          topology instead of the default spec; validated upstream *)
  traffic : string option;
      (** textual tenant traffic pattern in the [Ninja_workloads.Traffic]
          grammar; when set, traffic-aware experiments draw their tenant
          matrices from it instead of their built-in default; validated
          upstream *)
  migration : string option;
      (** migration copy mode name in the [Ninja_vmm.Migration] grammar
          (["precopy"] or ["postcopy"]); when set, experiments that
          perform Ninja migrations use it instead of their precopy
          default; validated upstream *)
  label : string;
      (** names this run's simulations in telemetry exports (e.g. the
          experiment entry and sweep-point index), so tracks from
          different simulations stay distinct; [""] when unused *)
  trace : sink option;
      (** probe-event timelines, one chunk per simulation; setting it
          attaches a renderer to the probe bus of every cluster the run
          creates *)
  metrics : sink option;  (** result tables as CSV, one chunk per table *)
  spans : sink option;
      (** telemetry span exports (Chrome trace-event JSON), one chunk per
          simulation; setting it arms the telemetry recorder on every
          cluster the run creates *)
  observe : (string -> float -> unit) option;
      (** scalar observation hook [name value], e.g. a bench harness
          collecting per-entry simulated seconds; may be called from
          pooled domains, so the callback must be thread-safe *)
  pool : Pool.t option;  (** grid points run domain-parallel when set *)
}

val make :
  ?seed:int64 ->
  ?mode:mode ->
  ?faults:string list ->
  ?topology:string ->
  ?traffic:string ->
  ?migration:string ->
  ?label:string ->
  ?trace:sink ->
  ?metrics:sink ->
  ?spans:sink ->
  ?observe:(string -> float -> unit) ->
  ?pool:Pool.t ->
  unit ->
  t
(** Defaults: seed 42, [Quick], no faults, no sinks, serial. *)

val default : t
(** [make ()]. *)

val full : t

val with_seed : int64 -> t -> t

val with_topology : string option -> t -> t

val with_pool : Pool.t option -> t -> t

val with_label : string -> t -> t

val with_observer : (string -> float -> unit) option -> t -> t

val jobs : t -> int
(** Pool size, or 1 when serial. *)

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** The sweep primitive: [List.map f] when serial, {!Pool.map} when a
    pool is present. Results are in input order either way. *)

val trace_line : t -> string -> unit
(** Send a chunk to the trace sink, if any. *)

val emit_metrics : t -> string -> unit
(** Send a chunk to the metrics sink, if any. *)

val emit_spans : t -> string -> unit
(** Send a chunk to the spans sink, if any. *)

val observe : t -> string -> float -> unit
(** Report a named scalar to the observation hook, if any. *)

val buffered : t -> (t -> 'a) -> 'a * (unit -> unit)
(** [buffered t f] runs [f] under [t] with each of its sinks redirected
    into one private buffer (absent sinks stay absent), and returns
    [f]'s result with a replay function that sends the buffered chunks,
    in arrival order, to [t]'s own sinks. A mutex guards the buffer, so
    [f] may fan out over the pool. Pooled work keeps its output in
    submission order this way: each task runs under [buffered] on its
    domain, and the submitting domain replays the tasks in order. *)
