(* Quickstart: the smallest end-to-end Ninja migration.

   Two VMs run a two-rank MPI job on the InfiniBand cluster; we migrate
   them to the Ethernet cluster mid-run. The job keeps running — the MPI
   transport switches from openib to tcp underneath it — and we print the
   overhead breakdown plus the migration and fence events announced on the
   cluster's probe bus.

     dune exec examples/quickstart.exe
*)

open Ninja_engine
open Ninja_hardware
open Ninja_mpi
open Ninja_metrics
open Ninja_core

let () =
  (* 1. A simulated data center: 8 InfiniBand nodes + 8 Ethernet nodes
     (the paper's AGC testbed). *)
  let sim = Sim.create ~seed:7L () in
  let cluster = Cluster.create sim () in
  let host name = Cluster.find_node cluster name in
  let timeline = ref [] in
  ignore
    (Probe.attach (Cluster.probes cluster) (fun e ->
         match e.Probe.topic with
         | "migrate" | "fence" -> timeline := Format.asprintf "%a" Probe.pp e :: !timeline
         | _ -> ()));

  (* 2. Two 20 GB VMs on the IB cluster, HCAs passed through. *)
  let ninja = Ninja.setup cluster ~hosts:[ host "ib00"; host "ib01" ] () in

  (* 3. An MPI job: iterations of compute + allreduce, reporting the
     transport used to reach the peer. *)
  ignore
    (Ninja.launch ninja ~procs_per_vm:1 (fun ctx ->
         for i = 1 to 20 do
           Mpi.compute ctx ~seconds:1.0;
           Mpi.allreduce ctx ~bytes:1.0e8;
           Mpi.checkpoint_point ctx;
           if Mpi.rank ctx = 0 && i mod 5 = 0 then
             Printf.printf "[%6.1fs] iteration %2d done, transport to peer: %s\n"
               (Mpi.wtime ctx) i
               (match Mpi.current_transport ctx ~peer:1 with
               | Some k -> Btl.kind_name k
               | None -> "unreachable")
         done));

  (* 4. Ten seconds in, fall back to the Ethernet cluster. *)
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 10);
      Printf.printf "[%6.1fs] --- triggering Ninja fallback migration ---\n"
        (Time.to_sec_f (Sim.now sim));
      let b = Ninja.fallback ninja ~dsts:[ host "eth00"; host "eth01" ] () in
      Format.printf "[%6.1fs] --- migration done: %a ---@."
        (Time.to_sec_f (Sim.now sim))
        Breakdown.pp b;
      Ninja.wait_job ninja);

  Sim.run sim;
  Printf.printf "\njob finished at %.1fs without restarting any MPI process.\n"
    (Time.to_sec_f (Sim.now sim));
  print_endline "\n--- migration-related trace ---";
  List.iter print_endline (List.rev !timeline)
