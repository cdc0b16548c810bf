(** Public MPI-like operations for workload code.

    Checkpoints are taken at explicit {!checkpoint_point}s — the
    application-level checkpointing discipline of the OPAL CRS SELF
    component the paper builds on. Place one per application iteration
    (every process, the same number of times); the runtime agrees on a
    common epoch so all processes fence at the same iteration boundary. *)

open Ninja_vmm

type ctx = Rank.proc

val rank : ctx -> int

val size : ctx -> int

val vm : ctx -> Vm.t

val wtime : ctx -> float
(** Simulated seconds since simulation start. *)

val compute : ctx -> seconds:float -> unit
(** One core of CPU work on the current host (slows under over-commit). *)

val send : ?tag:int -> ctx -> dst:int -> bytes:float -> unit

val recv : ctx -> ?src:int -> ?tag:int -> unit -> float

val sendrecv : ctx -> dst:int -> src:int -> bytes:float -> float

val barrier : ctx -> unit

val bcast : ctx -> root:int -> bytes:float -> unit

val reduce : ctx -> root:int -> bytes:float -> unit

val allreduce : ctx -> bytes:float -> unit

val alltoall : ctx -> bytes_per_pair:float -> unit

(** {1 Checkpointing} *)

val checkpoint_point : ctx -> unit
(** Checkpoint-safe point; see the module comment. *)

val current_transport : ctx -> peer:int -> Btl.kind option
(** Which BTL would carry a message to [peer] right now ([None] if
    unreachable) — how tests observe the paper's transparent transport
    switch. *)
