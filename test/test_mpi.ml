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

let test_gather_scatter_alltoall () =
  let t =
    run_collective (fun ctx ->
        Mpi.scatter ctx ~root:0 ~bytes_per_rank:1.0e6;
        Mpi.gather ctx ~root:0 ~bytes_per_rank:1.0e6;
        Mpi.alltoall ctx ~bytes_per_pair:1.0e6;
        Mpi.allgather ctx ~bytes_per_rank:1.0e6)
  in
  Alcotest.(check bool) "completes quickly" true (t < 1.0)

let test_reduce_scatter_scan () =
  let t =
    run_collective (fun ctx ->
        Mpi.reduce_scatter ctx ~bytes_per_rank:1.0e6;
        Mpi.scan ctx ~bytes:1.0e6;
        Mpi.exscan ctx ~bytes:1.0e6)
  in
  Alcotest.(check bool) "completes" true (t > 0.0 && t < 1.0)

let test_scan_is_a_chain () =
  (* A scan over n ranks takes ~n-1 hops; doubling the rank count roughly
     doubles the chain latency for a fixed payload. *)
  let time n =
    let sim, cluster, members = setup ~n_ib:n () in
    let t = ref 0.0 in
    let job =
      Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
          Mpi.scan ctx ~bytes:2.0e7;
          if Mpi.rank ctx = n - 1 then t := Mpi.wtime ctx)
    in
    Sim.spawn sim (fun () -> Runtime.wait job);
    Sim.run sim;
    !t
  in
  let t2 = time 2 and t4 = time 4 in
  check_near "3 hops vs 1 hop" (t2 *. 0.8) (3.0 *. t2) t4

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

(* ------------------------------------------------------------------ *)
(* Communicators *)

let test_comm_world_basics () =
  let sim, cluster, members = setup () in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx ->
        let w = Comm.world ctx in
        Alcotest.(check int) "size" 4 (Comm.size w);
        Alcotest.(check int) "rank matches job rank" (Mpi.rank ctx) (Comm.rank w ctx);
        Alcotest.(check int) "ctx 0" 0 (Comm.context_id w);
        Alcotest.(check int) "translate" 3 (Rank.rank (Comm.translate w 3)))
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim

let test_comm_split_by_vm () =
  (* Split into one communicator per VM; collectives stay inside it. *)
  let sim, cluster, members = setup () in
  let results = ref [] in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx ->
        let w = Comm.world ctx in
        let color = Mpi.rank ctx / 2 in
        let sub = Comm.split w ctx ~color ~key:(Mpi.rank ctx) in
        Alcotest.(check int) "sub size" 2 (Comm.size sub);
        (* Concurrent bcasts in both sub-communicators, same tags. *)
        Comm.bcast sub ctx ~root:0 ~bytes:4096.0;
        Comm.allreduce sub ctx ~bytes:1.0e6;
        results := (Mpi.rank ctx, color, Comm.rank sub ctx) :: !results)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  let sorted = List.sort compare !results in
  Alcotest.(check (list (triple int int int)))
    "ranks within colors"
    [ (0, 0, 0); (1, 0, 1); (2, 1, 0); (3, 1, 1) ]
    (List.map (fun (a, b, c) -> (a, b, c)) sorted)

let test_comm_split_key_ordering () =
  let sim, cluster, members = setup () in
  let results = ref [] in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        let w = Comm.world ctx in
        (* Reverse the order via keys. *)
        let sub = Comm.split w ctx ~color:0 ~key:(- Mpi.rank ctx) in
        results := (Mpi.rank ctx, Comm.rank sub ctx) :: !results)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check (list (pair int int))) "reversed"
    [ (0, 1); (1, 0) ]
    (List.sort compare !results)

let test_comm_dup_fresh_context () =
  let sim, cluster, members = setup () in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        let w = Comm.world ctx in
        let d = Comm.dup w ctx in
        Alcotest.(check bool) "fresh ctx" true (Comm.context_id d <> Comm.context_id w);
        Alcotest.(check int) "same size" (Comm.size w) (Comm.size d);
        Alcotest.(check int) "same rank" (Comm.rank w ctx) (Comm.rank d ctx);
        (* p2p within the dup. *)
        if Comm.rank d ctx = 0 then Comm.send d ctx ~dst:1 ~bytes:64.0
        else ignore (Comm.recv d ctx ~src:0 ()))
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim

let test_comm_traffic_isolation () =
  (* A message sent in comm A with tag 5 must not match a recv in comm B
     with tag 5. *)
  let sim, cluster, members = setup () in
  let got_from = ref (-1) in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx ->
        let w = Comm.world ctx in
        let d = Comm.dup w ctx in
        match Mpi.rank ctx with
        | 0 ->
          Comm.send ~tag:5 w ctx ~dst:3 ~bytes:10.0;
          Comm.send ~tag:5 d ctx ~dst:3 ~bytes:20.0
        | 3 ->
          (* Posting the dup-communicator recv first must skip the
             world-communicator message even though it arrived first. *)
          let b = Comm.recv d ctx ~src:0 ~tag:5 () in
          got_from := int_of_float b;
          ignore (Comm.recv w ctx ~src:0 ~tag:5 ())
        | _ -> ())
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check int) "dup message matched" 20 !got_from

(* ------------------------------------------------------------------ *)
(* Non-blocking operations *)

let test_isend_overlaps_compute () =
  let sim, cluster, members = setup () in
  let t_done = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then begin
          (* 1 GB rendezvous (~0.31 s on QDR) overlapped with 0.3 s of
             compute: total ~ max, not sum. *)
          let r = Mpi.isend ctx ~dst:1 ~bytes:1.0e9 in
          Mpi.compute ctx ~seconds:0.3;
          ignore (Mpi.wait r);
          t_done := Mpi.wtime ctx
        end
        else begin
          ignore (Mpi.recv ctx ())
        end)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check bool) "overlapped" true (!t_done < 0.45)

let test_irecv_test_and_wait () =
  let sim, cluster, members = setup () in
  let early = ref (Some 0.0) and late = ref None in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then begin
          let r = Mpi.irecv ctx () in
          early := Mpi.test r;
          Mpi.compute ctx ~seconds:2.0;
          late := Mpi.test r;
          Alcotest.(check (float 0.01)) "wait returns size" 4096.0 (Mpi.wait r)
        end
        else begin
          Mpi.compute ctx ~seconds:1.0;
          Mpi.send ctx ~dst:0 ~bytes:4096.0
        end)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check (option (float 0.01))) "not yet" None !early;
  Alcotest.(check (option (float 0.01))) "completed during compute" (Some 4096.0) !late

let test_waitall () =
  let sim, cluster, members = setup () in
  let sizes = ref [] in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        if Mpi.rank ctx = 0 then begin
          let rs = List.init 4 (fun i -> Mpi.irecv ctx ~tag:i ()) in
          sizes := Mpi.waitall rs
        end
        else
          for i = 0 to 3 do
            Mpi.send ~tag:i ctx ~dst:0 ~bytes:(float_of_int (100 * (i + 1)))
          done)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check (list (float 0.01))) "all sizes in request order"
    [ 100.0; 200.0; 300.0; 400.0 ] !sizes

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
          Alcotest.test_case "gather/scatter/alltoall" `Quick test_gather_scatter_alltoall;
          Alcotest.test_case "reduce_scatter/scan" `Quick test_reduce_scatter_scan;
          Alcotest.test_case "scan chain cost" `Quick test_scan_is_a_chain;
          Alcotest.test_case "odd process count" `Quick test_collectives_odd_process_count;
          Alcotest.test_case "sm within VM" `Quick test_sm_collective_within_vm;
        ] );
      ( "comm",
        [
          Alcotest.test_case "world basics" `Quick test_comm_world_basics;
          Alcotest.test_case "split by VM" `Quick test_comm_split_by_vm;
          Alcotest.test_case "split key ordering" `Quick test_comm_split_key_ordering;
          Alcotest.test_case "dup fresh context" `Quick test_comm_dup_fresh_context;
          Alcotest.test_case "traffic isolation" `Quick test_comm_traffic_isolation;
        ] );
      ( "nonblocking",
        [
          Alcotest.test_case "isend overlap" `Quick test_isend_overlaps_compute;
          Alcotest.test_case "irecv test/wait" `Quick test_irecv_test_and_wait;
          Alcotest.test_case "waitall" `Quick test_waitall;
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
