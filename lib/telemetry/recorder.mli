(** Probe-bus telemetry recorder.

    Subscribes to a cluster's {!Ninja_engine.Probe} bus and turns the
    event stream into

    - {b span trees}, reassembled per track from the [Span_begin],
      [Span_end] and [Span_note] payloads (the one span-tree builder:
      [Ninja.migrate] derives its breakdown from a private recorder), and
    - a {b metrics registry}: protocol counters (migrations
      started/completed/rolled back/given up, precopied bytes, fault
      firings, executor step totals), the fence-residency and per-phase
      latency histograms, and a high-water gauge of VMs per fence.

    Every event that is not a span transition is kept as an instant for
    the exporter, so a trace file shows fence entries, QMP commands,
    fault firings and node deaths on their tracks alongside the spans. *)

open Ninja_engine

type t

val create : unit -> t

val on_event : t -> Probe.event -> unit
(** The subscriber; attach it with {!Probe.attach} or
    {!Probe.with_subscriber} (or use {!attach}). *)

val attach : t -> Probe.t -> Probe.subscription

val roots : t -> Span.t list
(** Reconstructed top-level spans in begin order, across all tracks;
    spans whose end never arrived are still open. *)

val open_spans : t -> int

val instants : t -> Probe.event list
(** Non-span events in arrival order. *)

val metrics : t -> Metrics.t

val anomalies : t -> string list
(** Mismatched or unmatched span ends — evidence of a broken emitter. *)

val last_at : t -> Time.t
(** Timestamp of the newest event ([Time.zero] before any). *)

val events_seen : t -> int
