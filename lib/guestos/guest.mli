(** Guest operating system: PCI device manager and network drivers.

    One [Guest.t] runs inside each VM. It subscribes to the VM's ACPI
    hotplug events: when a device appears a driver is bound and its link
    begins training — an IB port stays in POLLING for ~30 s (the paper's
    dominant re-attach overhead, Table II); virtio links come up
    immediately. When a device is removed the driver is unbound.

    The MPI BTL layer asks the guest which device kinds currently have an
    ACTIVE link ({!usable_kinds}) and waits for links after a migration
    ({!await_link_active} — the "confirm link-up" step of Fig. 4). *)

open Ninja_hardware
open Ninja_vmm

type t

type driver

val boot : Vm.t -> t
(** Bind drivers for already-attached devices (links immediately active,
    as after a normal boot) and subscribe to hotplug events. *)

val drivers : t -> driver list

val device : driver -> Device.t

val link : driver -> Link_state.t

val find_driver : t -> kind:Device.kind -> driver option

val usable_kinds : t -> Device.kind list
(** Kinds with an ACTIVE link, fastest first. *)

val await_link_active : t -> Device.kind -> unit
(** Block the calling fiber until a driver of that kind reports ACTIVE.
    Blocks forever if no such device is ever attached — guard with
    {!find_driver} when the device is optional. *)

val on_link_change : t -> (driver -> unit) -> unit
