(** The paper's memtest micro-benchmark (§IV-B): each MPI process
    sequentially writes a memory array of the configured size, over and
    over. It exists to create a controlled memory footprint (and dirty
    rate) for migration-overhead measurements (Table II, Fig. 6). *)

val run :
  Ninja_mpi.Mpi.ctx ->
  array_bytes:float ->
  ?passes:int ->
  ?write_bandwidth:float ->
  unit ->
  unit
(** Allocate [array_bytes] of guest memory and write it sequentially
    [passes] times (default 3) at [write_bandwidth] (default 3 GB/s),
    with a checkpoint-safe point and a barrier after every pass. *)

val run_until :
  Ninja_mpi.Mpi.ctx ->
  array_bytes:float ->
  until:float ->
  unit ->
  unit
(** Keep writing passes at 3 GB/s until simulated time [until]
    (seconds). *)
