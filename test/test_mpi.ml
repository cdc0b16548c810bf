(* Tests for the MPI runtime: p2p protocols, BTL selection, collectives,
   CRCP quiesce and the checkpoint/continue flow. *)

open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_guestos
open Ninja_mpi

let check_near msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g +/- %g, got %g" msg expected tolerance actual

(* A VM on [node], optionally with a VMM-bypass HCA already installed (as
   if configured before boot), plus its booted guest. *)
let make_member ?(ib = false) ?(mem_gb = 20.0) cluster ~name node =
  let vm = Vm.create cluster ~name ~host:node ~vcpus:8 ~mem_bytes:(Units.gb mem_gb) () in
  if ib then Vm.attach_device vm (Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca);
  let guest = Guest.boot vm in
  (vm, guest)

let setup ?(n_ib = 2) ?(n_eth = 0) () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim ~spec:Spec.agc () in
  let members =
    List.init n_ib (fun i ->
        make_member ~ib:true cluster
          ~name:(Printf.sprintf "vm-ib%d" i)
          (Cluster.find_node cluster (Printf.sprintf "ib%02d" i)))
    @ List.init n_eth (fun i ->
          make_member cluster
            ~name:(Printf.sprintf "vm-eth%d" i)
            (Cluster.find_node cluster (Printf.sprintf "eth%02d" i)))
  in
  (sim, cluster, members)

(* ------------------------------------------------------------------ *)
(* Point-to-point *)

let test_eager_send_recv () =
  let sim, cluster, members = setup () in
  let got = ref 0.0 and recv_at = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then Mpi.send ctx ~dst:1 ~bytes:1024.0
        else begin
          got := Mpi.recv ctx ();
          recv_at := Mpi.wtime ctx
        end)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  check_near "payload size" 1e-9 1024.0 !got;
  (* Eager over IB: one latency + 1 KiB at 3.2 GB/s — well under 1 ms. *)
  Alcotest.(check bool) "fast delivery" true (!recv_at < 0.001)

let test_eager_sender_does_not_block () =
  let sim, cluster, members = setup () in
  let send_return = ref infinity in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then begin
          Mpi.send ctx ~dst:1 ~bytes:1024.0;
          send_return := Mpi.wtime ctx
        end
        else begin
          (* Receiver posts late; the eager sender must not care. *)
          Mpi.compute ctx ~seconds:2.0;
          ignore (Mpi.recv ctx ())
        end)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check bool) "sender returned immediately" true (!send_return < 0.001)

let test_rendezvous_timing () =
  let sim, cluster, members = setup () in
  let bytes = 1.0e9 in
  let t_done = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then Mpi.send ctx ~dst:1 ~bytes
        else begin
          ignore (Mpi.recv ctx ());
          t_done := Mpi.wtime ctx
        end)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  (* 1 GB at QDR ~3.2 GB/s; handshake latencies are microseconds. *)
  check_near "rendezvous at wire rate" 0.01 (bytes /. Calibration.ib_bandwidth) !t_done

let test_rendezvous_waits_for_receiver () =
  let sim, cluster, members = setup () in
  let send_done = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then begin
          Mpi.send ctx ~dst:1 ~bytes:1.0e8;
          send_done := Mpi.wtime ctx
        end
        else begin
          Mpi.compute ctx ~seconds:5.0;
          ignore (Mpi.recv ctx ())
        end)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check bool) "sender blocked until recv posted" true (!send_done >= 5.0)

let test_tag_and_source_matching () =
  let sim, cluster, members = setup () in
  let order = ref [] in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx ->
        match Mpi.rank ctx with
        | 0 ->
          Mpi.send ~tag:7 ctx ~dst:3 ~bytes:10.0;
          Mpi.send ~tag:9 ctx ~dst:3 ~bytes:20.0
        | 1 -> Mpi.send ~tag:7 ctx ~dst:3 ~bytes:30.0
        | 3 ->
          (* Tag 9 first even though tag 7 arrived earlier; then by source. *)
          let a = Mpi.recv ctx ~tag:9 () in
          let b = Mpi.recv ctx ~src:1 () in
          let c = Mpi.recv ctx ~src:0 ~tag:7 () in
          order := [ a; b; c ]
        | _ -> ())
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check (list (float 0.001))) "selective matching" [ 20.0; 30.0; 10.0 ] !order

let test_fifo_per_pair () =
  let sim, cluster, members = setup () in
  let seen = ref [] in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then
          for i = 1 to 5 do
            Mpi.send ctx ~dst:1 ~bytes:(float_of_int i)
          done
        else
          for _ = 1 to 5 do
            seen := Mpi.recv ctx () :: !seen
          done)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check (list (float 0.001))) "fifo" [ 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* BTL selection *)

let test_btl_selection_matrix () =
  let sim, cluster, members = setup ~n_ib:2 ~n_eth:1 () in
  let transports = ref [] in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx ->
        if Mpi.rank ctx = 0 then begin
          let t peer = Option.map Btl.kind_name (Mpi.current_transport ctx ~peer) in
          transports := [ t 1 (* same VM *); t 2 (* other IB VM *); t 4 (* eth VM *) ]
        end;
        Mpi.barrier ctx)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check (list (option string)))
    "sm / openib / tcp"
    [ Some "sm"; Some "openib"; Some "tcp" ]
    !transports

let test_exclusivity_ordering () =
  Alcotest.(check bool) "sm > openib" true (Btl.exclusivity Btl.Sm > Btl.exclusivity Btl.Openib);
  Alcotest.(check int) "openib" 1024 (Btl.exclusivity Btl.Openib);
  Alcotest.(check int) "tcp" 100 (Btl.exclusivity Btl.Tcp);
  Alcotest.(check (list string)) "priority sort"
    [ "sm"; "openib"; "tcp" ]
    (List.map Btl.kind_name (List.sort Btl.compare_priority [ Btl.Tcp; Btl.Sm; Btl.Openib ]))

let test_uncoordinated_detach_breaks_job () =
  (* Detaching the HCA without the SymVirt dance must break in-flight
     communication — the failure Ninja migration exists to prevent. *)
  let sim, cluster, members = setup () in
  let failure = ref None in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then begin
          (* Prime the openib path. *)
          Mpi.send ctx ~dst:1 ~bytes:(10.0 *. 1024.0 *. 1024.0);
          Mpi.compute ctx ~seconds:1.0;
          match Mpi.send ctx ~dst:1 ~bytes:(10.0 *. 1024.0 *. 1024.0) with
          | () -> ()
          | exception Btl.Transport_failure msg -> failure := Some msg
        end
        else begin
          ignore (Mpi.recv ctx ());
          (* Rip the device out from under the runtime. *)
          ignore (Vm.detach_device (Mpi.vm ctx) ~tag:"vf0");
          ignore (Mpi.recv ctx ())
        end)
  in
  Sim.spawn sim (fun () -> try Runtime.wait job with Sim.Deadlock _ -> ());
  (try Sim.run sim with Sim.Deadlock _ -> ());
  match !failure with
  | Some msg ->
    Alcotest.(check bool) "names openib" true
      (String.length msg >= 10 && String.sub msg 0 10 = "btl_openib")
  | None -> Alcotest.fail "expected Transport_failure"

(* A TCP message's private virtio hop and a migration sender's hop are
   retired once their transfer is over: after an MPI job over TCP and a
   precopy migration, the fabric has exactly the links it was built with. *)
let test_private_links_released () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim ~spec:Spec.agc () in
  let fabric = Cluster.fabric cluster in
  let ids () = List.map Ninja_flownet.Fabric.link_id (Ninja_flownet.Fabric.links fabric) in
  let built = ids () in
  let members =
    List.init 2 (fun i ->
        make_member ~mem_gb:1.0 cluster
          ~name:(Printf.sprintf "vm-eth%d" i)
          (Cluster.find_node cluster (Printf.sprintf "eth%02d" i)))
  in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then Mpi.send ctx ~dst:1 ~bytes:1e6 else ignore (Mpi.recv ctx ()))
  in
  Sim.spawn sim (fun () ->
      Runtime.wait job;
      let vm, _ = List.hd members in
      ignore (Migration.migrate vm ~dst:(Cluster.find_node cluster "eth02") ()));
  Sim.run sim;
  Alcotest.(check (list int)) "links as built" built (ids ());
  (* Ids are never reused: the next one shows how many hops came and went. *)
  let next = Ninja_flownet.Fabric.add_link fabric ~name:"probe" ~capacity:1.0 in
  Alcotest.(check bool) "private hops were used" true
    (Ninja_flownet.Fabric.link_id next >= List.length built + 2)

(* ------------------------------------------------------------------ *)
(* Collectives *)

let run_collective ?(n_ib = 4) ?(procs_per_vm = 1) body =
  let sim, cluster, members = setup ~n_ib () in
  let finish = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm (fun ctx ->
        body ctx;
        Mpi.barrier ctx;
        if Mpi.rank ctx = 0 then finish := Mpi.wtime ctx)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  !finish

let test_barrier_completes () =
  let t = run_collective (fun ctx -> Mpi.barrier ctx) in
  Alcotest.(check bool) "microseconds" true (t < 0.01)

let test_bcast_small () =
  let t = run_collective (fun ctx -> Mpi.bcast ctx ~root:0 ~bytes:4096.0) in
  Alcotest.(check bool) "fast" true (t < 0.01)

let test_bcast_large_bandwidth_optimal () =
  let bytes = 4.0e9 in
  let t = run_collective (fun ctx -> Mpi.bcast ctx ~root:0 ~bytes) in
  (* van de Geijn: ~2·(n-1)/n·B/bw = 2·0.75·4e9/3.2e9 = 1.875 s, plus
     scatter serialisation slack. A binomial tree would need ~2.5 s. *)
  check_near "vdG cost" 0.4 1.9 t

let test_bcast_roots_other_than_zero () =
  let t = run_collective (fun ctx -> Mpi.bcast ctx ~root:2 ~bytes:1.0e8) in
  Alcotest.(check bool) "completes" true (t > 0.0)

let test_reduce_large () =
  let bytes = 4.0e9 in
  let t = run_collective (fun ctx -> Mpi.reduce ctx ~root:0 ~bytes) in
  (* ring reduce-scatter (~0.94 s) + gather to root (~0.94 s) + op CPU. *)
  Alcotest.(check bool) "in plausible band" true (t > 1.2 && t < 4.0)

let test_allreduce_large () =
  let bytes = 2.0e9 in
  let t = run_collective (fun ctx -> Mpi.allreduce ctx ~bytes) in
  (* 2·(n-1)/n·B/bw + op = ~0.94 + ~0.75·2/2 -> ~1.7 s. *)
  Alcotest.(check bool) "in plausible band" true (t > 0.9 && t < 3.0)

let test_allreduce_small_uses_tree () =
  let t = run_collective (fun ctx -> Mpi.allreduce ctx ~bytes:1024.0) in
  Alcotest.(check bool) "fast" true (t < 0.01)

let test_alltoall () =
  let t = run_collective (fun ctx -> Mpi.alltoall ctx ~bytes_per_pair:1.0e6) in
  Alcotest.(check bool) "completes quickly" true (t < 1.0)

let test_collectives_odd_process_count () =
  (* Non-power-of-two ranks exercise the general-case trees. *)
  let t =
    run_collective ~n_ib:3 ~procs_per_vm:1 (fun ctx ->
        Mpi.bcast ctx ~root:1 ~bytes:1.0e9;
        Mpi.reduce ctx ~root:2 ~bytes:1.0e9;
        Mpi.allreduce ctx ~bytes:1.0e9;
        Mpi.barrier ctx)
  in
  Alcotest.(check bool) "completes" true (t > 0.0)

let test_sm_collective_within_vm () =
  (* All ranks in one VM: pure shared-memory, no fabric involvement. *)
  let sim, cluster, members = setup ~n_ib:1 () in
  let t = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:8 (fun ctx ->
        Mpi.allreduce ctx ~bytes:1.0e8;
        if Mpi.rank ctx = 0 then t := Mpi.wtime ctx)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check bool) "fast shared-memory path" true (!t < 1.0)

(* Every collective's per-rank return time, in integer nanoseconds, pinned
   to the values below. Payloads sit on both sides of the 512 KiB switch
   from the tree algorithms to the ring, van de Geijn and Rabenseifner
   ones; layouts mix odd and even rank counts, one rank per VM (the
   InfiniBand BTL only) and two (shared memory inside each VM as well).
   Unlike the bands above, a message moved to another peer or step, or
   resized, changes some entry. *)
let pinned_op = function
  | "barrier" -> fun ctx _ -> Mpi.barrier ctx
  | "sendrecv" ->
    fun ctx bytes ->
      let n = Mpi.size ctx and r = Mpi.rank ctx in
      ignore (Mpi.sendrecv ctx ~dst:((r + 1) mod n) ~src:((r + n - 1) mod n) ~bytes)
  | "bcast root 0" -> fun ctx bytes -> Mpi.bcast ctx ~root:0 ~bytes
  | "bcast root n-1" -> fun ctx bytes -> Mpi.bcast ctx ~root:(Mpi.size ctx - 1) ~bytes
  | "reduce root 0" -> fun ctx bytes -> Mpi.reduce ctx ~root:0 ~bytes
  | "reduce root n-1" -> fun ctx bytes -> Mpi.reduce ctx ~root:(Mpi.size ctx - 1) ~bytes
  | "allreduce" -> fun ctx bytes -> Mpi.allreduce ctx ~bytes
  | "alltoall" -> fun ctx bytes -> Mpi.alltoall ctx ~bytes_per_pair:bytes
  | name -> invalid_arg name

(* (VMs, ranks per VM, collective, payload bytes), per-rank return times. *)
let pinned_timings =
  [
    ((3, 1, "barrier", 0.), [| 3400; 3400; 3400 |]);
    ((3, 1, "sendrecv", 1024.), [| 2020; 2020; 2020 |]);
    ((3, 1, "sendrecv", 524288.), [| 167240; 167240; 167240 |]);
    ((3, 1, "sendrecv", 524289.), [| 167240; 167240; 167240 |]);
    ((3, 1, "sendrecv", 100000000.), [| 31253400; 31253400; 31253400 |]);
    ((3, 1, "bcast root 0", 1024.), [| 0; 2340; 2340 |]);
    ((3, 1, "bcast root 0", 524288.), [| 334480; 334480; 167240 |]);
    ((3, 1, "bcast root 0", 524289.), [| 232052; 232052; 232052 |]);
    ((3, 1, "bcast root 0", 100000000.), [| 41680268; 41680268; 41680268 |]);
    ((3, 1, "bcast root n-1", 1024.), [| 2340; 2340; 0 |]);
    ((3, 1, "bcast root n-1", 524288.), [| 334480; 167240; 334480 |]);
    ((3, 1, "bcast root n-1", 524289.), [| 232052; 232052; 232052 |]);
    ((3, 1, "bcast root n-1", 100000000.), [| 41680268; 41680268; 41680268 |]);
    ((3, 1, "reduce root 0", 1024.), [| 2340; 0; 0 |]);
    ((3, 1, "reduce root 0", 524288.), [| 858768; 167240; 596624 |]);
    ((3, 1, "reduce root 0", 524289.), [| 406816; 406816; 348803 |]);
    ((3, 1, "reduce root 0", 100000000.), [| 75013602; 64593535; 75013602 |]);
    ((3, 1, "reduce root n-1", 1024.), [| 0; 0; 2340 |]);
    ((3, 1, "reduce root n-1", 524288.), [| 167240; 596624; 858768 |]);
    ((3, 1, "reduce root n-1", 524289.), [| 348803; 406816; 406816 |]);
    ((3, 1, "reduce root n-1", 100000000.), [| 75013602; 64593535; 75013602 |]);
    ((3, 1, "allreduce", 1024.), [| 2340; 4680; 4680 |]);
    ((3, 1, "allreduce", 524288.), [| 1193248; 1193248; 1026008 |]);
    ((3, 1, "allreduce", 524289.), [| 406816; 406816; 406816 |]);
    ((3, 1, "allreduce", 100000000.), [| 75013602; 75013602; 75013602 |]);
    ((3, 1, "alltoall", 1024.), [| 4040; 4040; 4040 |]);
    ((3, 1, "alltoall", 524288.), [| 334480; 334480; 334480 |]);
    ((3, 1, "alltoall", 524289.), [| 334480; 334480; 334480 |]);
    ((3, 1, "alltoall", 100000000.), [| 62506800; 62506800; 62506800 |]);
    ((4, 1, "barrier", 0.), [| 3400; 3400; 3400; 3400 |]);
    ((4, 1, "sendrecv", 1024.), [| 2020; 2020; 2020; 2020 |]);
    ((4, 1, "sendrecv", 524288.), [| 167240; 167240; 167240; 167240 |]);
    ((4, 1, "sendrecv", 524289.), [| 167240; 167240; 167240; 167240 |]);
    ((4, 1, "sendrecv", 100000000.), [| 31253400; 31253400; 31253400; 31253400 |]);
    ((4, 1, "bcast root 0", 1024.), [| 0; 2340; 2340; 4360 |]);
    ((4, 1, "bcast root 0", 524288.), [| 334480; 334480; 334480; 334480 |]);
    ((4, 1, "bcast root 0", 524289.), [| 262760; 262760; 262760; 262760 |]);
    ((4, 1, "bcast root 0", 100000000.), [| 46892000; 46892000; 46892000; 46892000 |]);
    ((4, 1, "bcast root n-1", 1024.), [| 2340; 2340; 4360; 0 |]);
    ((4, 1, "bcast root n-1", 524288.), [| 334480; 334480; 334480; 334480 |]);
    ((4, 1, "bcast root n-1", 524289.), [| 262760; 262760; 262760; 262760 |]);
    ((4, 1, "bcast root n-1", 100000000.), [| 46892000; 46892000; 46892000; 46892000 |]);
    ((4, 1, "reduce root 0", 1024.), [| 4040; 0; 2020; 0 |]);
    ((4, 1, "reduce root 0", 524288.), [| 858768; 167240; 596624; 167240 |]);
    ((4, 1, "reduce root 0", 524289.), [| 462768; 462768; 418408; 374048 |]);
    ((4, 1, "reduce root 0", 100000000.), [| 84395400; 68763600; 84395400; 76579500 |]);
    ((4, 1, "reduce root n-1", 1024.), [| 0; 2020; 0; 4040 |]);
    ((4, 1, "reduce root n-1", 524288.), [| 167240; 596624; 167240; 858768 |]);
    ((4, 1, "reduce root n-1", 524289.), [| 462768; 418408; 374048; 462768 |]);
    ((4, 1, "reduce root n-1", 100000000.), [| 76579500; 68763600; 84395400; 84395400 |]);
    ((4, 1, "allreduce", 1024.), [| 4040; 6380; 6380; 8400 |]);
    ((4, 1, "allreduce", 524288.), [| 1193248; 1193248; 1193248; 1193248 |]);
    ((4, 1, "allreduce", 524289.), [| 462768; 462768; 462768; 462768 |]);
    ((4, 1, "allreduce", 100000000.), [| 84395400; 84395400; 84395400; 84395400 |]);
    ((4, 1, "alltoall", 1024.), [| 6060; 6060; 6060; 6060 |]);
    ((4, 1, "alltoall", 524288.), [| 501720; 501720; 501720; 501720 |]);
    ((4, 1, "alltoall", 524289.), [| 501720; 501720; 501720; 501720 |]);
    ((4, 1, "alltoall", 100000000.), [| 93760200; 93760200; 93760200; 93760200 |]);
    ((3, 2, "barrier", 0.), [| 5100; 3900; 5100; 3900; 5100; 3900 |]);
    ((3, 2, "sendrecv", 1024.), [| 2020; 705; 2020; 705; 2020; 705 |]);
    ((3, 2, "sendrecv", 524288.), [| 167240; 167240; 167240; 167240; 167240; 167240 |]);
    ((3, 2, "sendrecv", 524289.), [| 167240; 167240; 167240; 167240; 167240; 167240 |]);
    ((3, 2, "sendrecv", 100000000.), [| 31253400; 31253400; 31253400; 31253400; 31253400; 31253400 |]);
    ((3, 2, "bcast root 0", 1024.), [| 0; 705; 2340; 3045; 2340; 3045 |]);
    ((3, 2, "bcast root 0", 524288.), [| 440338; 440338; 440338; 440338; 273098; 273098 |]);
    ((3, 2, "bcast root 0", 524289.), [| 288037; 288037; 288037; 288037; 288037; 288037 |]);
    ((3, 2, "bcast root 0", 100000000.), [| 50233132; 50233132; 50233132; 50233132; 50233132; 50233132 |]);
    ((3, 2, "bcast root n-1", 1024.), [| 2660; 2660; 4680; 2660; 4680; 0 |]);
    ((3, 2, "bcast root n-1", 524288.), [| 501720; 501720; 501720; 334480; 334480; 501720 |]);
    ((3, 2, "bcast root n-1", 524289.), [| 300268; 300268; 300268; 288037; 288037; 300268 |]);
    ((3, 2, "bcast root n-1", 100000000.), [| 52110532; 52110532; 52110532; 50233132; 50233132; 52110532 |]);
    ((3, 2, "reduce root 0", 1024.), [| 3045; 0; 705; 0; 705; 0 |]);
    ((3, 2, "reduce root 0", 524288.), [| 1226770; 105858; 535242; 105858; 964626; 105858 |]);
    ((3, 2, "reduce root 0", 524289.), [| 513294; 390466; 513294; 482587; 421173; 451880 |]);
    ((3, 2, "reduce root 0", 100000000.), [| 91906595; 71059663; 91906595; 86694862; 76271396; 81483129 |]);
    ((3, 2, "reduce root n-1", 1024.), [| 0; 2020; 0; 2020; 0; 4360 |]);
    ((3, 2, "reduce root n-1", 524288.), [| 167240; 596624; 167240; 1026008; 167240; 1288152 |]);
    ((3, 2, "reduce root n-1", 524289.), [| 433404; 402697; 513294; 482587; 451880; 513294 |]);
    ((3, 2, "reduce root n-1", 100000000.), [| 78148796; 72937063; 91906595; 86694862; 81483129; 91906595 |]);
    ((3, 2, "allreduce", 1024.), [| 3045; 3750; 5385; 6090; 5385; 6090 |]);
    ((3, 2, "allreduce", 524288.), [| 1667108; 1667108; 1667108; 1667108; 1499868; 1499868 |]);
    ((3, 2, "allreduce", 524289.), [| 525525; 525525; 525525; 525525; 525525; 525525 |]);
    ((3, 2, "allreduce", 100000000.), [| 93783995; 93783995; 93783995; 93783995; 93783995; 93783995 |]);
    ((3, 2, "alltoall", 1024.), [| 8785; 8785; 8785; 8785; 8785; 8785 |]);
    ((3, 2, "alltoall", 524288.), [| 1327720; 1327720; 1327720; 1327720; 1327720; 1327720 |]);
    ((3, 2, "alltoall", 524289.), [| 1327723; 1327723; 1327723; 1327723; 1327723; 1327723 |]);
    ((3, 2, "alltoall", 100000000.), [| 250017000; 250017000; 250017000; 250017000; 250017000; 250017000 |]);
  ]

let test_pinned_timings () =
  List.iter
    (fun ((vms, procs_per_vm, name, bytes), expected) ->
      let sim, cluster, members = setup ~n_ib:vms () in
      let op = pinned_op name in
      let times = Array.make (vms * procs_per_vm) 0 in
      let job =
        Runtime.mpirun cluster ~members ~procs_per_vm (fun ctx ->
            op ctx bytes;
            times.(Mpi.rank ctx) <- Time.to_int (Sim.now sim))
      in
      Sim.spawn sim (fun () -> Runtime.wait job);
      Sim.run sim;
      Alcotest.(check (array int))
        (Printf.sprintf "%s, %.0f B, %d VMs x %d" name bytes vms procs_per_vm)
        expected times)
    pinned_timings

(* ------------------------------------------------------------------ *)
(* Checkpoint / CRCP *)

let test_checkpoint_quiesces_and_resumes () =
  let sim, cluster, members = setup () in
  let hooks_called = ref 0 in
  let inflight_at_hook = ref (-1) in
  let iterations_done = ref 0 in
  let ft_hooks =
    {
      Rank.on_checkpoint =
        (fun p ->
          incr hooks_called;
          inflight_at_hook := Rank.inflight (Rank.job p));
      Rank.on_continue = (fun _ -> ());
    }
  in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:2 ~ft_hooks (fun ctx ->
        for _ = 1 to 10 do
          Mpi.allreduce ctx ~bytes:1.0e8;
          Mpi.checkpoint_point ctx;
          if Mpi.rank ctx = 0 then incr iterations_done
        done)
  in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.ms 500);
      let complete = Runtime.request_checkpoint job in
      Runtime.await_checkpoint_complete complete;
      Runtime.wait job);
  Sim.run sim;
  Alcotest.(check int) "all 4 processes checkpointed" 4 !hooks_called;
  Alcotest.(check int) "network drained at fence" 0 !inflight_at_hook;
  Alcotest.(check int) "job ran to completion" 10 !iterations_done

let test_checkpoint_hits_safe_point_only () =
  (* Requested mid-compute, taken at the next MPI operation. *)
  let sim, cluster, members = setup () in
  let ckpt_at = ref 0.0 in
  let ft_hooks =
    { Rank.on_checkpoint = (fun _ -> ckpt_at := Time.to_sec_f (Sim.now sim)); Rank.on_continue = (fun _ -> ()) }
  in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 ~ft_hooks (fun ctx ->
        Mpi.compute ctx ~seconds:10.0;
        Mpi.barrier ctx;
        Mpi.checkpoint_point ctx)
  in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 2);
      ignore (Runtime.request_checkpoint job);
      Runtime.wait job);
  Sim.run sim;
  Alcotest.(check bool) "after the compute completes" true (!ckpt_at >= 10.0)

let test_checkpoint_releases_ib_and_reconstructs () =
  let sim, cluster, members = setup () in
  let btls_at_fence = ref [] in
  let ft_hooks =
    {
      Rank.on_checkpoint =
        (fun p -> if Rank.rank p = 0 then btls_at_fence := List.map Btl.kind_name (Rank.btls p));
      Rank.on_continue = (fun _ -> ());
    }
  in
  let after = ref None in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 ~ft_hooks (fun ctx ->
        for _ = 1 to 4 do
          Mpi.allreduce ctx ~bytes:1.0e8;
          Mpi.checkpoint_point ctx
        done;
        if Mpi.rank ctx = 0 then after := Mpi.current_transport ctx ~peer:1)
  in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.ms 100);
      ignore (Runtime.request_checkpoint job);
      Runtime.wait job);
  Sim.run sim;
  Alcotest.(check bool) "no openib at the fence" true (not (List.mem "openib" !btls_at_fence));
  Alcotest.(check (option string)) "openib back after continue" (Some "openib")
    (Option.map Btl.kind_name !after)

let test_continue_like_restart_flag () =
  (* TCP-only job; an HCA appears mid-run. With the flag the transport
     upgrades at the next checkpoint; without it the process keeps TCP
     (paper §III-C, recovery-migration caveat). *)
  let run_with flag =
    let sim, cluster, members = setup ~n_ib:2 () in
    (* Strip the HCAs so the job starts TCP-only. *)
    List.iter (fun (vm, _) -> ignore (Vm.detach_device vm ~tag:"vf0")) members;
    let transport = ref None in
    let job =
      Runtime.mpirun cluster ~members ~procs_per_vm:1 ~continue_like_restart:flag (fun ctx ->
          (* Keep iterating until well past the checkpoint (~32 s). *)
          while Mpi.wtime ctx < 40.0 do
            Mpi.compute ctx ~seconds:2.0;
            Mpi.allreduce ctx ~bytes:1.0e7;
            Mpi.checkpoint_point ctx
          done;
          if Mpi.rank ctx = 0 then transport := Mpi.current_transport ctx ~peer:1)
    in
    Sim.spawn sim (fun () ->
        Sim.sleep (Time.ms 50);
        (* HCAs come back (e.g. recovery migration re-attached them). *)
        List.iter
          (fun (vm, _) ->
            ignore
              (Ninja_vmm.Hotplug.device_add vm
                 ~device:(Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca)
                 ()))
          members;
        Sim.sleep (Time.sec 31(* link training *));
        ignore (Runtime.request_checkpoint job);
        Runtime.wait job);
    Sim.run sim;
    Option.map Btl.kind_name !transport
  in
  Alcotest.(check (option string)) "flag on: upgraded to openib" (Some "openib") (run_with true);
  Alcotest.(check (option string)) "flag off: stuck on tcp" (Some "tcp") (run_with false)

let test_linkup_wait_recorded () =
  let sim, cluster, members = setup () in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        for _ = 1 to 30 do
          Mpi.allreduce ctx ~bytes:1.0e7;
          Mpi.checkpoint_point ctx
        done)
  in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.ms 50);
      (* Detach and immediately re-attach the HCAs, then checkpoint: the
         continue phase must absorb the ~30 s link training. *)
      List.iter (fun (vm, _) -> ignore (Vm.detach_device vm ~tag:"vf0")) members;
      List.iter
        (fun (vm, _) ->
          Vm.attach_device vm (Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca))
        members;
      let complete = Runtime.request_checkpoint job in
      Runtime.await_checkpoint_complete complete;
      let linkup = Time.to_sec_f (Runtime.last_linkup_wait job) in
      Alcotest.(check bool) "~30 s linkup wait" true (linkup > 25.0 && linkup < 31.0);
      Runtime.wait job);
  Sim.run sim

let test_double_checkpoint_request_rejected () =
  let sim, cluster, members = setup () in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        Mpi.compute ctx ~seconds:5.0;
        Mpi.barrier ctx;
        Mpi.checkpoint_point ctx)
  in
  Sim.spawn sim (fun () ->
      ignore (Runtime.request_checkpoint job);
      Alcotest.check_raises "second request"
        (Invalid_argument "Rank.request_checkpoint: already pending") (fun () ->
          ignore (Runtime.request_checkpoint job));
      Runtime.wait job);
  Sim.run sim

let test_repeated_checkpoints () =
  let sim, cluster, members = setup () in
  let count = ref 0 in
  let ft_hooks =
    { Rank.on_checkpoint = (fun _ -> incr count); Rank.on_continue = (fun _ -> ()) }
  in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 ~ft_hooks (fun ctx ->
        for _ = 1 to 50 do
          Mpi.compute ctx ~seconds:0.05;
          Mpi.allreduce ctx ~bytes:1.0e7;
          Mpi.checkpoint_point ctx
        done)
  in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        Sim.sleep (Time.ms 100);
        Runtime.await_checkpoint_complete (Runtime.request_checkpoint job)
      done;
      Runtime.wait job);
  Sim.run sim;
  Alcotest.(check int) "3 checkpoints x 2 ranks" 6 !count

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Any collective, any process count, any payload: completes, takes
   positive time, and replays identically. *)
let collective_prop =
  QCheck.Test.make ~name:"collectives complete deterministically" ~count:40
    QCheck.(triple (int_range 2 6) (int_range 0 3) (float_bound_exclusive 1.0e7))
    (fun (np, which, bytes) ->
      let bytes = bytes +. 1.0 in
      let run () =
        let sim = Sim.create ~seed:5L () in
        let cluster = Cluster.create sim ~spec:Spec.agc_ib16 () in
        let members =
          List.init np (fun i ->
              make_member ~ib:true cluster
                ~name:(Printf.sprintf "p%d" i)
                (Cluster.find_node cluster (Printf.sprintf "ib%02d" i)))
        in
        let job =
          Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
              match which with
              | 0 -> Mpi.bcast ctx ~root:(np - 1) ~bytes
              | 1 -> Mpi.reduce ctx ~root:0 ~bytes
              | 2 -> Mpi.allreduce ctx ~bytes
              | _ -> Mpi.alltoall ctx ~bytes_per_pair:(bytes /. float_of_int np))
        in
        Sim.spawn sim (fun () -> Runtime.wait job);
        Sim.run sim;
        Time.to_sec_f (Sim.now sim)
      in
      let a = run () and b = run () in
      a > 0.0 && a = b)

(* Matched send/recv pairs with random tags always drain, and per-tag
   per-pair ordering is preserved. *)
let p2p_matching_prop =
  QCheck.Test.make ~name:"p2p matching drains and preserves order" ~count:60
    QCheck.(small_list (pair (int_bound 2) (int_range 1 64)))
    (fun msgs ->
      let sim = Sim.create () in
      let cluster = Cluster.create sim ~spec:Spec.agc_ib16 () in
      let members =
        List.init 2 (fun i ->
            make_member ~ib:true cluster
              ~name:(Printf.sprintf "p%d" i)
              (Cluster.find_node cluster (Printf.sprintf "ib%02d" i)))
      in
      let received = ref [] in
      let job =
        Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
            if Mpi.rank ctx = 0 then
              List.iter
                (fun (tag, kb) -> Mpi.send ~tag ctx ~dst:1 ~bytes:(float_of_int (kb * 1024)))
                msgs
            else
              List.iter
                (fun (tag, _) -> received := (tag, Mpi.recv ctx ~src:0 ~tag ()) :: !received)
                msgs)
      in
      Sim.spawn sim (fun () -> Runtime.wait job);
      Sim.run sim;
      let expected =
        List.map (fun (tag, kb) -> (tag, float_of_int (kb * 1024))) msgs
      in
      (* Receiver posts in program order with explicit tags: per-tag FIFO
         means each recv sees the sender's matching message in order. *)
      List.rev !received = expected)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ninja_mpi"
    [
      ( "p2p",
        [
          Alcotest.test_case "eager send/recv" `Quick test_eager_send_recv;
          Alcotest.test_case "eager non-blocking" `Quick test_eager_sender_does_not_block;
          Alcotest.test_case "rendezvous timing" `Quick test_rendezvous_timing;
          Alcotest.test_case "rendezvous waits" `Quick test_rendezvous_waits_for_receiver;
          Alcotest.test_case "tag/source matching" `Quick test_tag_and_source_matching;
          Alcotest.test_case "fifo per pair" `Quick test_fifo_per_pair;
        ] );
      ( "btl",
        [
          Alcotest.test_case "selection matrix" `Quick test_btl_selection_matrix;
          Alcotest.test_case "exclusivity" `Quick test_exclusivity_ordering;
          Alcotest.test_case "uncoordinated detach breaks" `Quick test_uncoordinated_detach_breaks_job;
          Alcotest.test_case "private links released" `Quick test_private_links_released;
        ] );
      ( "collectives",
        [
          Alcotest.test_case "barrier" `Quick test_barrier_completes;
          Alcotest.test_case "bcast small" `Quick test_bcast_small;
          Alcotest.test_case "bcast large" `Quick test_bcast_large_bandwidth_optimal;
          Alcotest.test_case "bcast nonzero root" `Quick test_bcast_roots_other_than_zero;
          Alcotest.test_case "reduce large" `Quick test_reduce_large;
          Alcotest.test_case "allreduce large" `Quick test_allreduce_large;
          Alcotest.test_case "allreduce small" `Quick test_allreduce_small_uses_tree;
          Alcotest.test_case "alltoall" `Quick test_alltoall;
          Alcotest.test_case "odd process count" `Quick test_collectives_odd_process_count;
          Alcotest.test_case "sm within VM" `Quick test_sm_collective_within_vm;
          Alcotest.test_case "pinned timings" `Quick test_pinned_timings;
        ] );
      ("properties", qsuite [ collective_prop; p2p_matching_prop ]);
      ( "checkpoint",
        [
          Alcotest.test_case "quiesce and resume" `Quick test_checkpoint_quiesces_and_resumes;
          Alcotest.test_case "safe points only" `Quick test_checkpoint_hits_safe_point_only;
          Alcotest.test_case "ib release + reconstruct" `Quick
            test_checkpoint_releases_ib_and_reconstructs;
          Alcotest.test_case "continue_like_restart" `Quick test_continue_like_restart_flag;
          Alcotest.test_case "linkup wait recorded" `Quick test_linkup_wait_recorded;
          Alcotest.test_case "double request rejected" `Quick test_double_checkpoint_request_rejected;
          Alcotest.test_case "repeated checkpoints" `Quick test_repeated_checkpoints;
        ] );
    ]
