(** MPI job and process state: the PML (point-to-point matching engine),
    the CRCP quiesce protocol, and the checkpoint/continue flow with BTL
    reconstruction.

    This is the internal machinery; user code goes through {!Mpi} (public
    operations) and {!Runtime} (job launch / checkpoint requests). *)

open Ninja_engine
open Ninja_guestos
open Ninja_hardware
open Ninja_vmm

type job

type proc

type ft_hooks = {
  on_checkpoint : proc -> unit;
      (** SELF checkpoint callback — fired per process after CRCP quiesce
          and IB resource release; Ninja parks the process in
          [symvirt_wait] here. *)
  on_continue : proc -> unit;
      (** SELF continue callback — fired per process after the VMM signal,
          before BTL reconstruction. *)
}

(** {1 Job construction (used by Runtime)} *)

val make_job :
  Cluster.t ->
  members:(Vm.t * Guest.t) list ->
  procs_per_vm:int ->
  continue_like_restart:bool ->
  ft_hooks:ft_hooks option ->
  job

val procs : job -> proc list

val cluster : job -> Cluster.t

val job_finished : job -> unit Ivar.t

val rank_started : job -> unit

val rank_finished : job -> unit

(** {1 Process accessors} *)

val rank : proc -> int

val size : proc -> int

val vm : proc -> Vm.t

val job : proc -> job

val btls : proc -> Btl.kind list

val init_btls : proc -> unit
(** MPI_Init-time BTL module construction (may wait for link training). *)

(** {1 Point-to-point (no checkpoint interception — see {!Mpi})} *)

exception No_route of string

val select_btl : proc -> dst:proc -> Btl.kind
(** Highest-exclusivity transport available on both endpoints and
    currently reachable. Raises {!No_route} when the peers share no
    transport (e.g. after an uncoordinated migration). *)

val send : proc -> dst:int -> tag:int -> bytes:float -> unit
(** Eager below the transport's limit (returns after injection),
    rendezvous above it (returns after the payload is delivered). *)

val recv : proc -> ?src:int -> ?tag:int -> unit -> float
(** Blocks until a matching message arrives; returns its size. [None]
    matches any source / any tag. *)

(** {1 Checkpoint/restart protocol} *)

val request_checkpoint : job -> unit Ivar.t
(** Host side. Every process enters the checkpoint flow at the first safe
    point no process has yet reached (epoch agreement — see the
    implementation note). The returned ivar fills when all processes have
    completed the continue phase (transports reconstructed, links
    confirmed). *)

val checkpoint_point : proc -> unit
(** Safe point. If a checkpoint is pending and this process has reached
    the globally agreed epoch, run quiesce → release IB →
    [on_checkpoint] → [on_continue] → BTL reconstruction → barrier.
    Applications must call this once per iteration (all processes, the
    same number of times) — the application-level checkpointing
    discipline of the SELF CRS component. *)

val last_linkup_wait : job -> Time.span
(** Longest time any process spent waiting for link training during the
    most recent checkpoint's reconstruction (the paper's "link-up"
    overhead segment). *)

val inflight : job -> int

exception Job_aborted
(** Raised inside a process to unwind it cleanly (fault-tolerance restart:
    the job incarnation is being killed, a new one will resume from the
    last checkpoint). {!Runtime.mpirun} treats it as a normal rank exit. *)

val last_checkpoint_epoch : job -> int
(** The safe-point epoch (per-process iteration count) at which the most
    recent checkpoint fenced — i.e. the application progress captured in
    the corresponding VM images. *)
