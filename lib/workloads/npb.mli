(** NAS Parallel Benchmarks skeletons (BT, CG, FT, LU).

    Each kernel is modelled as its iteration structure: per-iteration
    compute time per rank plus the kernel's communication pattern (BT:
    face exchanges on a 2-D process grid; CG: transpose exchanges + small
    allreduces; FT: a global transpose / all-to-all; LU: light wavefront
    neighbour traffic), with class-D working sets sized so that per-VM
    memory footprints span the paper's 2.3–16 GB range. This reproduces
    what Fig. 7 actually measures — baseline run time and
    migration-overhead sensitivity to footprint — without re-implementing
    the numerics.

    Message sizes are nominal for 64 ranks and scaled by 64/np so the
    aggregate volume is class-determined, like the real benchmarks. *)

open Ninja_mpi

type kernel = BT | CG | FT | LU

type klass = C | D

val all : kernel list
(** The four kernels the paper's Fig. 7 evaluates (BT, CG, FT, LU). *)

val kernel_name : kernel -> string

val iterations : kernel -> klass -> int

val footprint_per_vm : kernel -> klass -> procs_per_vm:int -> float
(** Application bytes resident per VM (the OS image comes on top). *)

val nominal_baseline : kernel -> klass -> float
(** Analytic no-migration run time on the idle IB cluster (seconds), for
    documentation and sanity tests. *)

val run : Mpi.ctx -> kernel -> klass -> ?on_iteration:(int -> float -> unit) -> unit -> unit
(** Execute the kernel to completion. [on_iteration] fires on rank 0 with
    (iteration index, elapsed seconds of that iteration). *)
