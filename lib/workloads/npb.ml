open Ninja_mpi
open Ninja_vmm

type kernel = BT | CG | FT | LU

type klass = C | D

let all = [ BT; CG; FT; LU ]

let kernel_name = function BT -> "BT" | CG -> "CG" | FT -> "FT" | LU -> "LU"

(* Per-kernel model parameters. Compute is core-seconds per rank per
   iteration at 64 ranks of class D, calibrated so the analytic baselines
   land near the paper's Fig. 7 bars; class C scales the work down ~4x.
   Communication sizes are per-rank nominal values at 64 ranks. *)

let iterations kernel klass =
  match (kernel, klass) with
  | BT, D -> 250
  | BT, C -> 200
  | CG, D -> 100
  | CG, C -> 75
  | FT, D -> 25
  | FT, C -> 20
  | LU, D -> 300
  | LU, C -> 250

let compute_per_iter kernel klass =
  let d =
    match kernel with
    | BT -> 3.90
    | CG -> 7.60
    | FT -> 16.70
    | LU -> 1.95
  in
  match klass with D -> d | C -> d /. 4.0

(* Application-resident bytes per VM at 8 ranks per VM (class D), spanning
   the paper's 2.3-16 GB per-VM footprint range once the OS image is
   added. *)
let footprint_per_vm kernel klass ~procs_per_vm =
  let per_vm_8 =
    match kernel with
    | BT -> 8.2e9
    | CG -> 1.5e9
    | FT -> 13.7e9
    | LU -> 3.9e9
  in
  let class_factor = match klass with D -> 1.0 | C -> 0.25 in
  per_vm_8 *. class_factor *. float_of_int procs_per_vm /. 8.0

let nominal_baseline kernel klass =
  let iters = float_of_int (iterations kernel klass) in
  let comm =
    match (kernel, klass) with
    | BT, D -> 0.05
    | CG, D -> 0.02
    | FT, D -> 1.4
    | LU, D -> 0.01
    | (BT | CG | FT | LU), C -> 0.01
  in
  iters *. (compute_per_iter kernel klass +. comm)

(* Message sizes (bytes per rank at 64 ranks); scaled by 64/np so class
   volume is constant. *)
let scale ctx nominal klass =
  let class_factor = match klass with D -> 1.0 | C -> 0.25 in
  nominal *. class_factor *. 64.0 /. float_of_int (Mpi.size ctx)

let communicate ctx kernel klass =
  let np = Mpi.size ctx in
  let r = Mpi.rank ctx in
  let neighbor d = ((r + d) mod np + np) mod np in
  match kernel with
  | BT ->
    (* Face exchanges on a (sqrt np)^2 grid: row and column neighbours. *)
    let face = scale ctx 3.0e6 klass in
    let row = max 1 (int_of_float (Float.sqrt (float_of_int np))) in
    if np > 1 then begin
      ignore (Mpi.sendrecv ctx ~dst:(neighbor 1) ~src:(neighbor (-1)) ~bytes:face);
      ignore (Mpi.sendrecv ctx ~dst:(neighbor (-1)) ~src:(neighbor 1) ~bytes:face);
      ignore (Mpi.sendrecv ctx ~dst:(neighbor row) ~src:(neighbor (-row)) ~bytes:face);
      ignore (Mpi.sendrecv ctx ~dst:(neighbor (-row)) ~src:(neighbor row) ~bytes:face)
    end
  | CG ->
    (* Transpose exchange with the conjugate rank + dot-product
       reductions. *)
    let seg = scale ctx 1.5e6 klass in
    if np > 1 then begin
      let partner = if r land 1 = 0 then neighbor 1 else neighbor (-1) in
      ignore (Mpi.sendrecv ctx ~dst:partner ~src:partner ~bytes:seg);
      for _ = 1 to 3 do
        Mpi.allreduce ctx ~bytes:8.0
      done
    end
  | FT ->
    (* Global transpose. *)
    let pair = scale ctx (34.4e9 /. (64.0 *. 64.0)) klass in
    if np > 1 then Mpi.alltoall ctx ~bytes_per_pair:pair
  | LU ->
    (* Wavefront pencil exchanges (aggregated per iteration). *)
    let pencil = scale ctx 2.5e5 klass in
    if np > 1 then begin
      ignore (Mpi.sendrecv ctx ~dst:(neighbor 1) ~src:(neighbor (-1)) ~bytes:pencil);
      ignore (Mpi.sendrecv ctx ~dst:(neighbor (-1)) ~src:(neighbor 1) ~bytes:pencil)
    end

(* Touch the kernel's working set once so the VM's migratable footprint is
   realistic; the write rate mimics initialisation, not the solver. *)
let allocate_working_set ctx kernel klass =
  let vm = Mpi.vm ctx in
  let ranks_here =
    List.length (List.filter (fun p -> Rank.vm p == vm) (Rank.procs (Rank.job ctx)))
  in
  let per_rank =
    footprint_per_vm kernel klass ~procs_per_vm:ranks_here /. float_of_int ranks_here
  in
  let region = Memory.alloc (Vm.memory vm) ~bytes:per_rank in
  Vm.guest_write vm region ~offset:0.0 ~bytes:per_rank ~bandwidth:6.0e9

let run ctx kernel klass ?(on_iteration = fun _ _ -> ()) () =
  allocate_working_set ctx kernel klass;
  Mpi.barrier ctx;
  let iters = iterations kernel klass in
  let compute = compute_per_iter kernel klass in
  for i = 1 to iters do
    let t0 = Mpi.wtime ctx in
    Mpi.compute ctx ~seconds:compute;
    communicate ctx kernel klass;
    Mpi.checkpoint_point ctx;
    if Mpi.rank ctx = 0 then on_iteration i (Mpi.wtime ctx -. t0)
  done;
  Mpi.barrier ctx
