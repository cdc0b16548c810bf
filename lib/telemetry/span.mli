(** Hierarchical timing spans.

    A span is a named sim-time interval on a track — a (process, thread)
    pair mirroring how trace viewers group timelines: one process per
    node (or component), one thread per VM (or role). Spans nest: a
    migration root span contains one child per protocol phase, a phase
    contains its retry attempts and backoff sleeps, and so on.

    Spans exist in two forms:

    - {b local trees}, built inline by model code through a {!scope} —
      always constructed (a handful of allocations per migration, no
      simulation effect), so [Ninja.migrate] can derive its returned
      [Breakdown.t] from the tree without any bus subscriber; and
    - {b probe events} ({!Ninja_engine.Probe.Span_begin}, [Span_end] and
      [Span_note]), mirrored by the scope only while the bus is observed
      and reassembled into identical trees by {!Recorder}. Code without a
      scope emits those payloads directly, under a [Probe.active]
      guard. *)

open Ninja_engine

type t = {
  name : string;
  cat : string;  (** taxonomy bucket: ["phase"], ["retry"], ["rollback"], ["vmm"], ... *)
  proc : string;  (** track process, e.g. a node name or ["ninja"] *)
  thread : string;  (** track thread, e.g. a VM name *)
  start : Time.t;
  mutable stop : Time.t option;  (** [None] while the span is open *)
  mutable args : (string * string) list;
  mutable rev_children : t list;
}

val create :
  name:string -> cat:string -> proc:string -> thread:string -> start:Time.t ->
  ?args:(string * string) list -> unit -> t

val finish : t -> at:Time.t -> ?args:(string * string) list -> unit -> unit
(** Closes the span, appending [args]. Raises [Invalid_argument] if it is
    already finished or [at] precedes its start. *)

val duration : t -> Time.span
(** Raises [Invalid_argument] on an open span. *)

val add_child : t -> t -> unit

val children : t -> t list
(** In creation order. *)

val find_child : t -> string -> t option
(** First direct child with the given name. *)

val well_formed : t -> string list
(** Structural problems of the tree, empty when sound: every span must be
    finished with [stop >= start], and every child interval must lie
    within its parent's. *)

(** {2 Scoped builder}

    One scope per instrumented flow: it keeps the open-span stack for a
    single track, builds the local tree, and mirrors every operation to
    the probe bus when one is given (and observed). *)

type scope

val scope : ?probes:Probe.t -> sim:Sim.t -> proc:string -> thread:string -> unit -> scope

val enter : scope -> name:string -> cat:string -> ?args:(string * string) list -> unit -> t
(** Opens a child of the innermost open span (a new root when none). *)

val exit_ : scope -> ?args:(string * string) list -> t -> unit
(** Closes [s] at the current sim time. Any span opened after [s] and
    still open is closed first (exception unwinding). Raises
    [Invalid_argument] if [s] is not on the stack. *)

val note :
  scope -> name:string -> cat:string -> start:Time.t ->
  ?args:(string * string) list -> unit -> t
(** Records a closed child [start .. now] of the innermost open span. *)

val roots : scope -> t list
(** Top-level spans in creation order (open ones included). *)
