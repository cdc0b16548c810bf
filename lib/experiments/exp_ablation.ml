open Ninja_engine
open Ninja_hardware
open Ninja_metrics
open Ninja_vmm
open Ninja_guestos
open Ninja_mpi
open Ninja_workloads
open Exp_common

(* ------------------------------------------------------------------ *)
(* VMM-bypass vs virtio vs emulated NIC *)

type nic_setup = Bypass_ib | Virtio | Emulated

let nic_name = function
  | Bypass_ib -> "VMM-bypass IB HCA"
  | Virtio -> "virtio-net (para-virtual)"
  | Emulated -> "emulated NIC"

let make_pair cluster setup =
  List.init 2 (fun i ->
      let host = Cluster.find_node cluster (Printf.sprintf "ib%02d" i) in
      let vm =
        Vm.create cluster ~name:(Printf.sprintf "vm%d" i) ~host ~vcpus:8
          ~mem_bytes:(Units.gb 20.0) ()
      in
      (match setup with
      | Bypass_ib -> Vm.attach_device vm (Device.hca ())
      | Virtio -> ()
      | Emulated ->
        ignore (Vm.detach_device vm ~tag:"virtio0");
        Vm.attach_device vm (Device.make ~tag:"e1000" ~pci_addr:"00:03.0" Device.Emulated_nic));
      (vm, Guest.boot vm))

let p2p_throughput rc setup =
  let env = fresh ~spec:Spec.agc_ib16 rc in
  let sim = env.sim and cluster = env.cluster in
  let members = make_pair cluster setup in
  let bytes = 2.0e9 in
  let elapsed = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then Mpi.send ctx ~dst:1 ~bytes
        else begin
          let t0 = Mpi.wtime ctx in
          ignore (Mpi.recv ctx ());
          elapsed := Mpi.wtime ctx -. t0
        end)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  run_to_completion env;
  bytes /. !elapsed /. 1e9

let p2p_latency rc setup =
  (* Mean one-way latency of 100 pingpongs of an 8-byte payload. *)
  let env = fresh ~spec:Spec.agc_ib16 rc in
  let sim = env.sim and cluster = env.cluster in
  let members = make_pair cluster setup in
  let n = 100 in
  let elapsed = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        let t0 = Mpi.wtime ctx in
        for _ = 1 to n do
          if Mpi.rank ctx = 0 then begin
            Mpi.send ctx ~dst:1 ~bytes:8.0;
            ignore (Mpi.recv ctx ())
          end
          else begin
            ignore (Mpi.recv ctx ());
            Mpi.send ctx ~dst:0 ~bytes:8.0
          end
        done;
        if Mpi.rank ctx = 0 then elapsed := Mpi.wtime ctx -. t0)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  run_to_completion env;
  !elapsed /. float_of_int (2 * n) *. 1e6

let ft_runtime rc setup =
  (* FT class C (all-to-all heavy) on 2 VMs x 2 ranks: communication-bound
     enough that the guest NIC class shows in the total. *)
  let env = fresh ~spec:Spec.agc_ib16 rc in
  let sim = env.sim and cluster = env.cluster in
  let members = make_pair cluster setup in
  let finished = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx ->
        Npb.run ctx Npb.FT Npb.C ();
        if Mpi.rank ctx = 0 then finished := Mpi.wtime ctx)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  run_until env (Time.minutes 120);
  !finished

let bypass rc =
  let table =
    Table.create
      ~title:"Ablation: VMM-bypass vs para-virtual vs emulated I/O (2 VMs, ib00/ib01)"
      ~columns:
        [ "Guest NIC"; "p2p throughput [GB/s]"; "p2p latency [us]"; "FT.C time [s]" ]
  in
  sweep rc
    ~f:(fun rc setup ->
      (setup, p2p_throughput rc setup, p2p_latency rc setup, ft_runtime rc setup))
    [ Bypass_ib; Virtio; Emulated ]
  |> List.iter (fun (setup, tp, lat, ft) ->
         Table.add_row table
           [
             nic_name setup;
             Printf.sprintf "%.2f" tp;
             Printf.sprintf "%.1f" lat;
             Printf.sprintf "%.1f" ft;
           ]);
  [ table ]

(* ------------------------------------------------------------------ *)
(* TCP vs RDMA migration sender (§V) *)

let migrate_once rc ~transport ~size_gb =
  let env = fresh ~spec:Spec.agc_ib16 rc in
  let sim = env.sim and cluster = env.cluster in
  let src = Cluster.find_node cluster "ib00" in
  let dst = Cluster.find_node cluster "ib01" in
  let vm = Vm.create cluster ~name:"vm0" ~host:src ~vcpus:8 ~mem_bytes:(Units.gb 20.0) () in
  let stats = ref None in
  Sim.spawn sim (fun () ->
      let region = Memory.alloc (Vm.memory vm) ~bytes:(Units.gb size_gb) in
      Vm.guest_write vm region ~offset:0.0 ~bytes:(Units.gb size_gb) ~bandwidth:3.0e9;
      Vm.pause vm;
      stats := Some (Migration.migrate vm ~dst ~transport ()));
  run_to_completion env;
  Option.get !stats

let rdma_migration rc =
  let sizes = match rc.Run_ctx.mode with Quick -> [ 16.0 ] | Full -> [ 2.0; 8.0; 16.0 ] in
  let table =
    Table.create ~title:"Ablation: migration sender transport (frozen 20 GB VM)"
      ~columns:[ "Footprint"; "TCP sender [s]"; "RDMA sender [s]"; "speedup" ]
  in
  sweep rc
    ~f:(fun rc size_gb ->
      let tcp = sec (migrate_once rc ~transport:Migration.Tcp ~size_gb).Migration.duration in
      let rdma = sec (migrate_once rc ~transport:Migration.Rdma ~size_gb).Migration.duration in
      (size_gb, tcp, rdma))
    sizes
  |> List.iter (fun (size_gb, tcp, rdma) ->
         Table.add_float_row table (Printf.sprintf "%.0fGB" size_gb) [ tcp; rdma; tcp /. rdma ]);
  [ table ]

(* ------------------------------------------------------------------ *)
(* Precopy vs postcopy of a live, dirtying guest *)

let copy_mode_run rc ~mode =
  let env = fresh ~spec:Spec.agc_ib16 rc in
  let sim = env.sim and cluster = env.cluster in
  let src = Cluster.find_node cluster "ib00" in
  let dst = Cluster.find_node cluster "ib01" in
  let vm = Vm.create cluster ~name:"vm0" ~host:src ~vcpus:8 ~mem_bytes:(Units.gb 20.0) () in
  let stats = ref None in
  let work_done_at = ref 0.0 in
  let array = Units.gb 4.0 in
  Sim.spawn sim (fun () ->
      let region = Memory.alloc (Vm.memory vm) ~bytes:array in
      Vm.guest_write vm region ~offset:0.0 ~bytes:array ~bandwidth:3.0e9;
      (* A guest that keeps writing (dirtying) and computing. *)
      Sim.spawn sim (fun () ->
          for _ = 1 to 30 do
            Vm.guest_write vm region ~offset:0.0 ~bytes:array ~bandwidth:3.0e9;
            Vm.compute vm ~core_seconds:1.0
          done;
          work_done_at := Time.to_sec_f (Sim.now sim));
      Sim.sleep (Time.ms 100);
      stats := Some (Migration.migrate vm ~dst ~mode ()));
  run_until env (Time.minutes 60);
  (Option.get !stats, !work_done_at)

let postcopy rc =
  let (pre, pre_work), (post, post_work) =
    match
      sweep rc
        ~f:(fun rc mode -> copy_mode_run rc ~mode)
        [ Migration.Precopy; Migration.Postcopy ]
    with
    | [ pre; post ] -> (pre, post)
    | _ -> assert false
  in
  let table =
    Table.create
      ~title:"Ablation: precopy vs postcopy migration of a live, dirtying guest (4 GB writer)"
      ~columns:
        [ "Mode"; "migration [s]"; "downtime [s]"; "bytes sent [GB]"; "guest work done at [s]" ]
  in
  let row name (s : Migration.stats) work =
    Table.add_row table
      [
        name;
        Printf.sprintf "%.1f" (sec s.Migration.duration);
        Printf.sprintf "%.2f" (sec s.Migration.downtime);
        Printf.sprintf "%.1f" (s.Migration.transferred_bytes /. 1e9);
        Printf.sprintf "%.1f" work;
      ]
  in
  row "precopy" pre pre_work;
  row "postcopy" post post_work;
  [ table ]

(* ------------------------------------------------------------------ *)
(* Quiesced vs live migration *)

let quiesce_run rc ~frozen =
  let env = fresh ~spec:Spec.agc_ib16 rc in
  let sim = env.sim and cluster = env.cluster in
  let src = Cluster.find_node cluster "ib00" in
  let dst = Cluster.find_node cluster "ib01" in
  let vm = Vm.create cluster ~name:"vm0" ~host:src ~vcpus:8 ~mem_bytes:(Units.gb 20.0) () in
  let stats = ref None in
  let array = Units.gb 4.0 in
  Sim.spawn sim (fun () ->
      let region = Memory.alloc (Vm.memory vm) ~bytes:array in
      Vm.guest_write vm region ~offset:0.0 ~bytes:array ~bandwidth:3.0e9;
      (* A writer that keeps re-dirtying the array, as memtest does. *)
      Sim.spawn sim (fun () ->
          for _ = 1 to 50 do
            Vm.guest_write vm region ~offset:0.0 ~bytes:array ~bandwidth:3.0e9
          done);
      Sim.sleep (Time.ms 100);
      if frozen then Vm.pause vm;
      stats := Some (Migration.migrate vm ~dst ());
      Vm.resume vm);
  run_until env (Time.minutes 60);
  Option.get !stats

let quiesce rc =
  let frozen, live =
    match sweep rc ~f:(fun rc frozen -> quiesce_run rc ~frozen) [ true; false ] with
    | [ frozen; live ] -> (frozen, live)
    | _ -> assert false
  in
  let table =
    Table.create
      ~title:"Ablation: SymVirt-fenced (frozen) vs live migration of a dirtying guest (4 GB writer)"
      ~columns:[ "Mode"; "duration [s]"; "precopy passes"; "bytes sent [GB]"; "downtime [s]" ]
  in
  let row name (s : Migration.stats) =
    Table.add_row table
      [
        name;
        Printf.sprintf "%.1f" (sec s.Migration.duration);
        string_of_int s.Migration.rounds;
        Printf.sprintf "%.1f" (s.Migration.transferred_bytes /. 1e9);
        Printf.sprintf "%.2f" (sec s.Migration.downtime);
      ]
  in
  row "frozen at SymVirt fence" frozen;
  row "live (uncoordinated)" live;
  [ table ]
