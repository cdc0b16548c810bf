(** Protocol probe bus.

    A lightweight publish/subscribe channel over which model layers
    announce protocol-relevant transitions — fence entry/release, VM
    migrations, device hotplug, plan construction, fault firings — as
    typed {!payload}s stamped with the current simulation time. Delivery
    is synchronous: a subscriber observes the simulation exactly at the
    instant of the transition, which is what an invariant checker needs.
    The bus is the simulator's one event channel: the checker, the
    telemetry recorder and the [--trace] timeline are all subscribers, and
    they pattern-match on the payload.

    When nothing is subscribed, {!emit} returns immediately — an idle bus
    costs one branch per probe site. A site that has to compute its
    payload (a VM-name list, formatted arguments) guards it with
    {!active}. *)

include module type of struct
  include Probe_payload
end

type event = {
  at : Time.t;  (** simulation time at emission *)
  topic : string;  (** [topic payload], e.g. ["fence"], ["vm"], ["qmp"] *)
  payload : payload;
}

type t

type subscription
(** A handle identifying one attached subscriber, so it can be removed
    again. *)

val create : Sim.t -> t

val attach : t -> (event -> unit) -> subscription
(** Subscribers are called synchronously, in attachment order, from the
    emitting fiber. They must not block. *)

val detach : t -> subscription -> unit
(** Removes the subscriber; a no-op if it was already detached. The bus
    returns to zero-cost idle once the last subscriber is gone. *)

val with_subscriber : t -> (event -> unit) -> (unit -> 'a) -> 'a
(** [with_subscriber t f body] runs [body] with [f] attached and
    guarantees detachment on exit (normal or exceptional), so a checker
    or telemetry recorder cannot leak across runs. *)

val active : t -> bool
(** Whether any subscriber is attached (probe sites use this to skip
    expensive payload construction). *)

val emitted : t -> int
(** Events delivered so far (0 while no subscriber is attached). *)

val emit : t -> payload -> unit

val topic : payload -> string
(** The payload's layer, e.g. ["fence"], ["vm"], ["ctl"], ["span"]. *)

val render : payload -> string * string * (string * string) list
(** The text form {!pp} and the trace-event exporter share: [(action,
    subject, key/value pairs)], e.g. [("device-del", "vm0", [("tag",
    "vf0")])]. Empty fields of a two-emitter payload are omitted. *)

val pp : Format.formatter -> event -> unit
(** One line: [\[time\] topic/action subject k=v ...], the subject
    omitted when empty — e.g. [\[30.00s\] vm/device-del vm0 tag=vf0]. *)
