(** Hierarchical timing spans.

    A span is a named sim-time interval on a track — a (process, thread)
    pair mirroring how trace viewers group timelines: one process per
    node (or component), one thread per VM (or role). Spans nest: a
    migration root span contains one child per protocol phase, a phase
    contains its retry attempts and backoff sleeps, and so on.

    Model code announces spans as probe events
    ({!Ninja_engine.Probe.Span_begin}, [Span_end] and [Span_note]);
    {!Recorder} is the one module that reassembles them into trees of
    this type, which {!Export} renders and derives breakdowns from. *)

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
