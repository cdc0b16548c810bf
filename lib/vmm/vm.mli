(** A QEMU/KVM-style virtual machine.

    A VM has vCPUs that draw from its current host's processor-sharing CPU
    pool, page-tracked guest memory, and a set of attached PCI devices. A
    para-virtualised virtio NIC is attached at boot; a VMM-bypass IB HCA
    may be hot-added/removed ({!Hotplug}). While any bypass device is
    attached the VM cannot migrate — the constraint the paper's whole
    mechanism exists to work around.

    Guest-side code (MPI ranks, workloads) runs as fibers that perform
    {!compute} and {!guest_write}; both respect the VMM pause gate, so a
    paused VM makes no progress and dirties no memory. *)

open Ninja_engine
open Ninja_hardware

type state = Running | Paused

type t

val create :
  Cluster.t ->
  name:string ->
  host:Node.t ->
  vcpus:int ->
  mem_bytes:float ->
  ?os_resident_bytes:float ->
  unit ->
  t
(** Boots [Running] with a virtio NIC ["virtio0"] attached and
    [os_resident_bytes] (default 2.3 GB — kernel, OMPI runtime, page
    cache) of memory already non-zero. *)

val name : t -> string

val cluster : t -> Cluster.t

val host : t -> Node.t

val vcpus : t -> int

val memory : t -> Memory.t

val state : t -> state

(** {1 Devices} *)

val devices : t -> Device.t list

val find_device : t -> tag:string -> Device.t option

val has_bypass_device : t -> bool

val attach_device : t -> Device.t -> unit
(** Immediate bookkeeping + hook dispatch; the timed ACPI protocol lives in
    {!Hotplug}. Raises [Invalid_argument] on duplicate tag. *)

val detach_device : t -> tag:string -> Device.t
(** Raises [Not_found] if no such device. *)

(** {1 VMM-side lifecycle} *)

val pause : t -> unit

val resume : t -> unit

val set_host : t -> Node.t -> unit
(** Used by {!Migration}; re-binds the VM to the new host and announces
    it with a [Vm_migrated] probe. *)

val migration_lock : t -> Semaphore.t
(** Serialises migration/snapshot operations on this VM. *)

(** {1 Postcopy failure semantics} *)

val switchover_committed : t -> bool
(** True between a postcopy switchover commit and the end of its page
    drain: the VM runs at the destination with pages still at the
    source, so it must not be rerouted and cannot roll back. *)

val set_switchover_committed : t -> bool -> unit
(** Used by {!Migration}'s postcopy path. *)

val is_lost : t -> bool
(** The VM's source died mid-postcopy-drain: part of its memory is gone
    and no host has a complete image. Terminal. *)

val mark_lost : t -> unit

(** {1 Hooks} *)

val on_device_added : t -> (Device.t -> unit) -> unit

val on_device_removed : t -> (Device.t -> unit) -> unit

(** {1 Guest-side operations (called from fibers)} *)

val compute : ?chunk:float -> t -> core_seconds:float -> unit
(** Execute CPU work on one core of the current host, in [chunk]-sized
    pieces (default 1 core-second) so that pauses and host changes take
    effect promptly.
    Over-committed hosts slow this down via processor sharing; an active
    {!set_compute_slowdown} factor (demand paging during a postcopy pull)
    inflates the work. *)

val set_compute_slowdown : t -> float -> unit
(** Multiplier (>= 1.0) applied to guest compute and memory writes while
    set; used by postcopy migration to model remote demand faults. *)

val compute_slowdown : t -> float

val guest_write : t -> Memory.region -> offset:float -> bytes:float -> bandwidth:float -> unit
(** Write [bytes] into guest memory at the given memory bandwidth (one core
    of demand), dirtying pages as it goes, in 256 MiB chunks — the write
    pattern precopy migration reacts to. *)
