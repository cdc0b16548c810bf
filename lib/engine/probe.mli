(** Protocol probe bus.

    A lightweight publish/subscribe channel over which model layers
    announce protocol-relevant transitions — fence entry/release, VM
    migrations, device hotplug, plan construction, fault firings — as
    plain (topic, action, subject, info) records stamped with the current
    simulation time. Delivery is synchronous: a subscriber observes the
    simulation exactly at the instant of the transition, which is what an
    invariant checker needs. The bus is the simulator's one event
    channel: the checker, the telemetry recorder and the [--trace]
    timeline are all subscribers.

    When nothing is subscribed, {!emit} returns immediately without
    allocating — an idle bus costs one branch per probe site, so
    production runs pay nothing for the instrumentation. *)

type event = {
  at : Time.t;  (** simulation time at emission *)
  topic : string;  (** layer, e.g. ["fence"], ["vm"], ["qmp"], ["plan"] *)
  action : string;  (** transition, e.g. ["enter"], ["migrated"] *)
  subject : string;  (** VM or node name; [""] when not applicable *)
  info : (string * string) list;  (** further key/value detail *)
}

type t

type subscription
(** A handle identifying one attached subscriber, so it can be removed
    again. *)

val create : Sim.t -> t

val subscribe : t -> (event -> unit) -> unit
(** Subscribers are called synchronously, in subscription order, from the
    emitting fiber. They must not block. *)

val attach : t -> (event -> unit) -> subscription
(** Like {!subscribe}, but returns a handle for {!detach}. *)

val detach : t -> subscription -> unit
(** Removes the subscriber; a no-op if it was already detached. The bus
    returns to zero-cost idle once the last subscriber is gone. *)

val with_subscriber : t -> (event -> unit) -> (unit -> 'a) -> 'a
(** [with_subscriber t f body] runs [body] with [f] attached and
    guarantees detachment on exit (normal or exceptional), so a checker
    or telemetry recorder cannot leak across runs. *)

val active : t -> bool
(** Whether any subscriber is attached (probe sites may use this to skip
    expensive payload construction). *)

val emitted : t -> int
(** Events delivered so far (0 while no subscriber is attached). *)

val emit :
  t -> topic:string -> action:string -> ?subject:string -> ?info:(string * string) list ->
  unit -> unit

val info_of : event -> string -> string option

val pp : Format.formatter -> event -> unit
(** One line: [\[time\] topic/action subject k=v ...], the subject
    omitted when empty — e.g. [\[30.00s\] vm/device-del vm0 tag=vf0]. *)
