(** qcow2-style VM snapshots on shared storage.

    The paper's VMs live on qcow2 images over NFS so that migration needs
    no disk copy and checkpoint/restart can restore a whole virtual
    cluster (§II, proactive fault tolerance). A snapshot records the
    non-zero memory image; saving and restoring stream it through the NFS
    path at a calibrated rate. *)

open Ninja_hardware

type store
(** Shared NFS storage reachable from every node. *)

type t

val create_store : Cluster.t -> store
(** Streams at 0.4 GB/s (NFSv3 over the 10 GbE network). *)

val save : store -> Vm.t -> name:string -> t
(** Pause the VM, stream its non-zero memory to storage, resume. Blocking;
    the snapshot is internal to the image (qcow2 [savevm] semantics). *)

val restore : store -> t -> host:Node.t -> Vm.t
(** Materialise a new VM from the snapshot on [host] (e.g. restarting an
    IB-cluster checkpoint on the Ethernet cluster after a failure). The
    restored VM boots paused; {!Vm.resume} it when coordination allows. *)

val find : store -> name:string -> t option

val image_bytes : t -> float
