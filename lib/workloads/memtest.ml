open Ninja_mpi
open Ninja_vmm

let default_bandwidth = 3.0e9

let alloc ctx ~array_bytes = Memory.alloc (Vm.memory (Mpi.vm ctx)) ~bytes:array_bytes

let one_pass ctx region ~array_bytes ~write_bandwidth =
  Vm.guest_write (Mpi.vm ctx) region ~offset:0.0 ~bytes:array_bytes ~bandwidth:write_bandwidth;
  Mpi.checkpoint_point ctx;
  Mpi.barrier ctx

let run ctx ~array_bytes ?(passes = 3) ?(write_bandwidth = default_bandwidth) () =
  let region = alloc ctx ~array_bytes in
  for _ = 1 to passes do
    one_pass ctx region ~array_bytes ~write_bandwidth
  done

let run_until ctx ~array_bytes ~until () =
  let region = alloc ctx ~array_bytes in
  while Mpi.wtime ctx < until do
    one_pass ctx region ~array_bytes ~write_bandwidth:default_bandwidth
  done
