(** Shared experiment plumbing.

    All per-run configuration arrives in an explicit {!Run_ctx.t} —
    there are no module-level defaults to mutate. An experiment receives
    the context, calls {!fresh} once per simulated point and {!sweep}
    for its point grid, and returns tables; the same context therefore
    makes a run reproducible and lets independent points execute on
    separate domains. *)

open Ninja_engine
open Ninja_hardware

type mode = Run_ctx.mode = Quick | Full
(** Re-exported so experiments can match on [ctx.mode] unqualified. *)

type env = {
  ctx : Run_ctx.t;
  sim : Sim.t;
  cluster : Cluster.t;
  recorder : Ninja_telemetry.Recorder.t option;
  timeline : Buffer.t option;
      (** every probe event rendered with [Probe.pp], one line each;
          present when the context carries a trace sink *)
}
(** One simulated point: a deterministic simulation (seeded from the
    context) plus its cluster, with the context's fault specs armed on
    the cluster's injector. When the context carries a trace sink, a
    timeline renderer is the first subscriber on the cluster's probe bus;
    when it carries a spans sink, a telemetry recorder follows. *)

val fresh : ?spec:Spec.t -> Run_ctx.t -> env
(** Cluster population: an explicit [spec] wins; otherwise the context's
    topology (parsed with {!Topology.of_string}) if set; otherwise
    {!Spec.agc}. Raises [Failure] on a malformed fault or topology spec
    in the context (the CLI validates them upstream, so this indicates a
    programming error). *)

val migration_mode : Run_ctx.t -> Ninja_vmm.Migration.mode
(** The context's migration copy mode ([Precopy] when unset). Raises
    [Failure] on a malformed mode name (the CLI validates upstream). *)

val traffic : Run_ctx.t -> Ninja_workloads.Traffic.pattern option
(** The context's tenant traffic pattern, if set. Raises [Failure] on a
    malformed pattern (the CLI validates upstream). *)

val hosts : Cluster.t -> prefix:string -> first:int -> count:int -> Node.t list
(** e.g. [hosts c ~prefix:"ib" ~first:8 ~count:8] = ib08..ib15. *)

val run_to_completion : env -> unit
(** [Sim.run], then flush: the timeline to the trace sink under a
    [-- trace (seed N) --] header, the recorder's span fragment to the
    spans sink and its metrics CSV to the metrics sink (each only when
    armed), and to the observation hook the simulated end time as
    ["sim_s"], the events executed as ["sim_events"], the events that
    entered the heap as ["heap_insertions"] and the probe events delivered
    as ["probe_events"]. *)

val run_until : env -> Time.t -> unit
(** [Sim.run_until] plus the same flush. *)

val sweep : Run_ctx.t -> f:(Run_ctx.t -> 'a -> 'b) -> 'a list -> 'b list
(** An experiment's point grid. [f] receives a derived context labelled
    ["<parent>#<index>"] (so each point's telemetry tracks are distinct)
    and runs on its own domain when the parent carries a pool. Pooled
    points run under {!Run_ctx.buffered} and are replayed in input
    order, so trace/metrics/spans chunks arrive byte-identically to a
    serial sweep. *)

val sec : Time.span -> float
