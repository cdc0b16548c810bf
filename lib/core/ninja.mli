(** Ninja migration: interconnect-transparent migration of a whole
    virtualised MPI cluster (the paper's contribution, §III).

    A [Ninja.t] owns a set of VMs running one MPI job, with the full
    SymVirt assembly wired up: a hypercall endpoint per VM, coordinator
    callbacks inside every MPI process (registered as OPAL CRS SELF
    handlers), and a host-side controller with per-VM agents.

    {!migrate} performs the complete Fig. 4 flow:

    trigger → CRCP quiesce → SymVirt fence (VMs paused) → detach bypass
    devices → precopy migration → re-attach where the destination has the
    hardware → signal → BTL reconstruction (+ link-up wait) → resume —

    and returns the overhead breakdown the paper reports. Fallback
    (IB→Ethernet) and recovery (Ethernet→IB) are the same flow with
    different destinations; the transport switch falls out of BTL
    exclusivity, not from any special-casing here. *)

open Ninja_guestos
open Ninja_hardware
open Ninja_metrics
open Ninja_mpi
open Ninja_symvirt
open Ninja_vmm

type t

type vnode = { vm : Vm.t; guest : Guest.t; endpoint : Hypercall.t }

type outcome =
  | Completed  (** every VM reached its planned destination *)
  | Rolled_back of string
      (** a phase exhausted its retry attempts; every VM was returned to its
          origin node with its bypass devices restored, and the guests
          resumed where they were. The payload is the failure reason. *)
  | Lost of string
      (** a postcopy switchover committed and then the source died before
          the page drain completed: no host holds a complete image, so
          rollback-to-source is impossible for that VM. The lost VM(s)
          stay paused at the destination and are skipped by every rollback
          phase; surviving VMs are still restored to their origins. The
          payload is the failure reason. *)

val setup :
  Cluster.t ->
  hosts:Node.t list ->
  ?mem_gb:float ->
  ?attach_hca:bool ->
  unit ->
  t
(** One 8-vCPU VM of [mem_gb] (default 20) GB per host entry (named vm0,
    vm1, ...). With [attach_hca] (the default), hosts that have an
    InfiniBand port get the VMM-bypass HCA {!Ninja_hardware.Device.hca}. *)

val of_vms : Cluster.t -> vms:Vm.t list -> t
(** Wrap existing VMs (e.g. snapshot-restored ones) instead of creating
    fresh ones: boots a guest and creates a SymVirt endpoint for each. *)

val set_abort_check : t -> (unit -> bool) -> unit
(** When the check returns true as coordinators wake from a SymVirt
    signal, they raise [Rank.Job_aborted] so every process unwinds cleanly
    — how a fault-tolerance layer kills an incarnation at a fence. *)

val cluster : t -> Cluster.t

val vnodes : t -> vnode list

val vms : t -> Vm.t list

val launch :
  t ->
  procs_per_vm:int ->
  (Mpi.ctx -> unit) ->
  Runtime.t
(** Start the MPI job across the VMs with the SymVirt coordinator
    installed (checkpoint callback = [symvirt_wait], as libsymvirt.so does
    via LD_PRELOAD + the SELF CRS component), with Open MPI's
    [continue_like_restart] set as the paper does. *)

val runtime : t -> Runtime.t
(** Raises {!Not_launched} before {!launch}. *)

val procs_per_vm : t -> int

val wait_job : t -> unit

(** {1 Migration} *)

exception Not_launched

val migrate :
  t ->
  plan:(Vm.t -> Node.t) ->
  ?mode:Migration.mode ->
  ?detach:(Vm.t -> string list) ->
  ?attach:(Vm.t -> Device.t list) ->
  ?migration_exec:(unit -> unit) ->
  unit ->
  Breakdown.t
(** The full Ninja migration of every VM (concurrently, one agent each),
    precopied over TCP. Each VMM operation group gets its own SymVirt
    wait/signal pair as in the Fig. 5 script, the guests briefly running
    between fences; {!Script} is the single-fence form of the same
    sequence (equal measured overheads). Hotplug pays the calibrated
    "migration noise" factor when any VM actually changes host, and none
    for self-migration. [detach] defaults to the VM's
    bypass HCA if present; [attach] defaults to an HCA wherever the
    destination node has an IB port. The Table II experiment overrides
    both to hotplug the interconnect device under test (including virtio
    NICs for the Ethernet rows). [migration_exec] replaces the migration
    phase itself — the batch planner ({!Ninja_planner.Executor}) uses it
    to run an ordered plan inside the fence window; when it returns,
    every VM must already sit on [plan vm].

    The flow is transactional on the {!Retry} schedule: a VMM phase
    re-issues only the failed VMs' commands after the backoff, and a
    phase that still fails after {!Retry.max_attempts} tries rolls the
    whole operation back — VMs return to their origin
    nodes, detached bypass devices are re-attached where the source
    hardware allows, and the fence is released so the job continues where
    it was. [migrate] does not raise on injected faults; the time lost to
    retries and rollback is reported in the breakdown's [retry] field and
    the result is readable via {!last_outcome}.

    [mode] selects the copy strategy (default [Precopy]). Under
    [Postcopy] the failure semantics change: a fault before the
    switchover commits still rolls back cleanly, but a source death
    mid-drain makes the affected VM unrecoverable and the outcome becomes
    {!Lost} — rollback restores only the surviving VMs. *)

val last_outcome : t -> outcome option
(** Outcome of the most recent {!migrate} ([None] before the first). *)

val fallback : t -> dsts:Node.t list -> ?mode:Migration.mode -> unit -> Breakdown.t
(** Migrate VM i to [dsts.(i)] — e.g. from the IB cluster to the Ethernet
    cluster. Raises [Invalid_argument] on a length mismatch. *)

val recovery : t -> dsts:Node.t list -> unit -> Breakdown.t
(** Same mechanics as {!fallback}, precopied; named for the Fig. 2 phase. *)

val self_migration : t -> Breakdown.t
(** Each VM migrates to its own host (the Table II measurement mode). *)

(** {1 Checkpoint/restart to shared storage (§II, proactive FT)} *)

val checkpoint_to_store : t -> Snapshot.store -> name_prefix:string -> Snapshot.t list
(** Quiesce the job at a SymVirt fence and save a consistent snapshot of
    every VM, then resume — the proactive fault-tolerance building block
    from the authors' SymVirt paper that §II's use cases rely on. *)
