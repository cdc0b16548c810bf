(* Integration tests for Ninja migration: the full fallback/recovery cycle
   of Fig. 2, the overhead breakdown, and the paper's two headline claims
   (no normal-operation overhead; no process restarts across interconnect
   changes). *)

open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_metrics
open Ninja_mpi
open Ninja_core

let check_near msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g +/- %g, got %g" msg expected tolerance actual

let sec = Time.to_sec_f

let setup_agc () =
  let sim = Sim.create () in
  (sim, Cluster.create sim ~spec:Spec.agc ())

let ib_hosts cluster n = List.init n (fun i -> Cluster.find_node cluster (Printf.sprintf "ib%02d" i))

let eth_hosts cluster n =
  List.init n (fun i -> Cluster.find_node cluster (Printf.sprintf "eth%02d" i))

(* A steady iteration workload that records per-iteration state; runs until
   simulated time [until]. *)
let iteration_workload ~until ~log ctx =
  while Mpi.wtime ctx < until do
    Mpi.compute ctx ~seconds:0.3;
    Mpi.allreduce ctx ~bytes:2.0e8;
    Mpi.checkpoint_point ctx;
    if Mpi.rank ctx = 0 then
      log := (Mpi.wtime ctx, Option.map Btl.kind_name (Mpi.current_transport ctx ~peer:1)) :: !log
  done

let test_setup_attaches_hcas () =
  let _, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2 @ eth_hosts cluster 1) () in
  match Ninja.vms ninja with
  | [ v0; v1; v2 ] ->
    Alcotest.(check bool) "ib hosts get HCAs" true
      (Vm.has_bypass_device v0 && Vm.has_bypass_device v1);
    Alcotest.(check bool) "eth host does not" false (Vm.has_bypass_device v2)
  | _ -> Alcotest.fail "expected 3 VMs"

let test_fallback_switches_transport () =
  let sim, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 4) () in
  let log = ref [] in
  ignore (Ninja.launch ninja ~procs_per_vm:1 (iteration_workload ~until:120.0 ~log));
  let breakdown = ref Breakdown.zero in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 10);
      breakdown := Ninja.fallback ninja ~dsts:(eth_hosts cluster 4) ();
      Ninja.wait_job ninja);
  Sim.run sim;
  (* Transport before the migration: openib; after: tcp. *)
  let before = List.filter (fun (t, _) -> t < 10.0) (List.rev !log) in
  let after = List.filter (fun (t, _) -> t > sec !breakdown.Breakdown.total +. 10.0) (List.rev !log) in
  Alcotest.(check bool) "iterations before and after" true
    (List.length before > 2 && List.length after > 2);
  List.iter (fun (_, tr) -> Alcotest.(check (option string)) "openib before" (Some "openib") tr) before;
  List.iter (fun (_, tr) -> Alcotest.(check (option string)) "tcp after" (Some "tcp") tr) after;
  (* All VMs on the Ethernet cluster now. *)
  List.iter
    (fun vm -> Alcotest.(check bool) "on eth rack" false (Node.has_ib (Vm.host vm)))
    (Ninja.vms ninja)

let test_fallback_breakdown_shape () =
  let sim, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 4) () in
  let log = ref [] in
  ignore (Ninja.launch ninja ~procs_per_vm:1 (iteration_workload ~until:100.0 ~log));
  let b = ref Breakdown.zero in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 5);
      b := Ninja.fallback ninja ~dsts:(eth_hosts cluster 4) ();
      Ninja.wait_job ninja);
  Sim.run sim;
  let b = !b in
  (* Detach: IB detach under migration noise (~2.75 x 3.1). *)
  check_near "detach with noise" 1.0
    (Time.to_sec_f Calibration.detach_ib *. Calibration.hotplug_noise_factor)
    (sec b.Breakdown.detach);
  (* No IB at the destination: nothing to attach, no link training. *)
  Alcotest.(check bool) "attach ~0" true (sec b.Breakdown.attach < 0.5);
  Alcotest.(check bool) "linkup 0 on Ethernet" true (sec b.Breakdown.linkup < 0.1);
  (* 20 GB VM, mostly zero pages: tens of seconds of precopy. *)
  Alcotest.(check bool) "migration dominates" true
    (sec b.Breakdown.migration > 10.0 && sec b.Breakdown.migration < 60.0);
  Alcotest.(check bool) "coordination sub-second..ish" true (sec b.Breakdown.coordination < 2.0)

let test_recovery_restores_ib () =
  let sim, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
  let log = ref [] in
  ignore (Ninja.launch ninja ~procs_per_vm:1 (iteration_workload ~until:250.0 ~log));
  let recovery_b = ref Breakdown.zero in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 5);
      ignore (Ninja.fallback ninja ~dsts:(eth_hosts cluster 2) ());
      Sim.sleep (Time.sec 5);
      recovery_b := Ninja.recovery ninja ~dsts:(ib_hosts cluster 2) ();
      Ninja.wait_job ninja);
  Sim.run sim;
  let b = !recovery_b in
  (* Recovery re-attaches the HCA: ~30 s of link training dominates. *)
  check_near "linkup ~29.85" 1.0 (Time.to_sec_f Calibration.linkup_ib) (sec b.Breakdown.linkup);
  Alcotest.(check bool) "attach > 0" true (sec b.Breakdown.attach > 1.0);
  (* And the job is back on openib afterwards. *)
  (match List.rev !log with
  | [] -> Alcotest.fail "no iterations"
  | entries ->
    let _, last_transport = List.nth entries (List.length entries - 1) in
    Alcotest.(check (option string)) "openib restored" (Some "openib") last_transport);
  List.iter
    (fun vm -> Alcotest.(check bool) "back on IB rack" true (Node.has_ib (Vm.host vm)))
    (Ninja.vms ninja)

let test_self_migration_matches_table2 () =
  let sim, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
  let log = ref [] in
  ignore (Ninja.launch ninja ~procs_per_vm:1 (iteration_workload ~until:150.0 ~log));
  let b = ref Breakdown.zero in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 5);
      b := Ninja.self_migration ninja;
      Ninja.wait_job ninja);
  Sim.run sim;
  let b = !b in
  (* Self-migration: no "migration noise", so hotplug = detach + attach
     of the IB HCA ~ 3.88 s (Table II row 1) and linkup ~ 29.9 s. *)
  check_near "hotplug ~3.88" 0.3 3.88 (sec (Breakdown.hotplug b));
  check_near "linkup ~29.9" 1.0 29.91 (sec b.Breakdown.linkup)

let test_no_overhead_during_normal_operation () =
  (* Paper claim 1: with the Ninja machinery in place but no migration
     issued, iteration times equal a plain (machinery-free) run. *)
  let run_with_ninja with_ninja =
    let sim, cluster = setup_agc () in
    let hosts = ib_hosts cluster 4 in
    let done_at = ref 0.0 in
    let body ctx =
      for _ = 1 to 20 do
        Mpi.compute ctx ~seconds:0.3;
        Mpi.allreduce ctx ~bytes:2.0e8
      done;
      if Mpi.rank ctx = 0 then done_at := Mpi.wtime ctx
    in
    if with_ninja then begin
      let ninja = Ninja.setup cluster ~hosts () in
      ignore (Ninja.launch ninja ~procs_per_vm:1 body);
      Sim.spawn sim (fun () -> Ninja.wait_job ninja)
    end
    else begin
      let members =
        List.mapi
          (fun i host ->
            let vm =
              Vm.create cluster ~name:(Printf.sprintf "plain%d" i) ~host ~vcpus:8
                ~mem_bytes:(Units.gb 20.0) ()
            in
            Vm.attach_device vm (Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca);
            (vm, Ninja_guestos.Guest.boot vm))
          hosts
      in
      let job = Runtime.mpirun cluster ~members ~procs_per_vm:1 body in
      Sim.spawn sim (fun () -> Runtime.wait job)
    end;
    Sim.run sim;
    !done_at
  in
  let plain = run_with_ninja false in
  let ninja = run_with_ninja true in
  check_near "identical performance" 1e-6 plain ninja

let test_consolidation_two_vms_per_host () =
  (* Fig. 8's "2 hosts (TCP)": consolidating 2 VMs onto 1 host halves the
     compute rate of a CPU-saturating job. *)
  let sim, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
  let iter_times = ref [] in
  let body ctx =
    while Mpi.wtime ctx < 200.0 do
      let t0 = Mpi.wtime ctx in
      Mpi.compute ctx ~seconds:2.0;
      Mpi.allreduce ctx ~bytes:1.0e6;
      Mpi.checkpoint_point ctx;
      if Mpi.rank ctx = 0 then iter_times := (t0, Mpi.wtime ctx -. t0) :: !iter_times
    done
  in
  ignore (Ninja.launch ninja ~procs_per_vm:8 body);
  let b = ref Breakdown.zero in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 20);
      (* Consolidate both VMs onto eth00. *)
      let dst = Cluster.find_node cluster "eth00" in
      b := Ninja.migrate ninja ~plan:(fun _ -> dst) ();
      Ninja.wait_job ninja);
  Sim.run sim;
  let after_migration =
    List.filter (fun (t0, _) -> t0 > 20.0 +. sec !b.Breakdown.total) !iter_times
  in
  let before = List.filter (fun (t0, _) -> t0 < 18.0) !iter_times in
  let mean l = Stats.mean (List.map snd l) in
  Alcotest.(check bool) "samples on both sides" true
    (List.length before > 1 && List.length after_migration > 1);
  (* 16 single-core compute tasks on 8 cores: ~2x slower iterations. *)
  check_near "overcommit ratio ~2" 0.3 2.0 (mean after_migration /. mean before)

let test_checkpoint_to_store () =
  let sim, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
  let store = Snapshot.create_store cluster in
  let iterations = ref 0 in
  ignore
    (Ninja.launch ninja ~procs_per_vm:1 (fun ctx ->
         while Mpi.wtime ctx < 120.0 do
           Mpi.compute ctx ~seconds:0.5;
           Mpi.allreduce ctx ~bytes:1.0e7;
           Mpi.checkpoint_point ctx;
           if Mpi.rank ctx = 0 then incr iterations
         done));
  let snaps = ref [] in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 10);
      snaps := Ninja.checkpoint_to_store ninja store ~name_prefix:"ckpt";
      Ninja.wait_job ninja);
  Sim.run sim;
  Alcotest.(check int) "one snapshot per VM" 2 (List.length !snaps);
  Alcotest.(check bool) "job continued after checkpoint" true (!iterations > 50);
  Alcotest.(check bool) "snapshots findable" true (Snapshot.find store ~name:"ckpt-0" <> None)

let test_script_fig5_flow () =
  (* The literal Fig. 5 sequence: wait_all; device_detach; migration;
     signal — then recovery with device_attach. *)
  let sim, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
  let log = ref [] in
  ignore (Ninja.launch ninja ~procs_per_vm:1 (iteration_workload ~until:220.0 ~log));
  let b = ref Breakdown.zero in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 5);
      (* 1. fallback migration *)
      let ctl = Script.controller ninja in
      Script.wait_all ctl;
      Script.device_detach ctl ~tag:"vf0";
      Script.migration ctl ~src:[ "ib00"; "ib01" ] ~dst:[ "eth00"; "eth01" ];
      Script.signal ctl;
      ignore (Script.quit ctl);
      Sim.sleep (Time.sec 5);
      (* 2. recovery migration *)
      let ctl = Script.controller ninja in
      Script.wait_all ctl;
      Script.migration ctl ~src:[ "eth00"; "eth01" ] ~dst:[ "ib00"; "ib01" ];
      Script.device_attach ctl ~host:"04:00.0" ~tag:"vf0";
      Script.signal ctl;
      b := Script.quit ctl;
      Ninja.wait_job ninja);
  Sim.run sim;
  Alcotest.(check bool) "recovery linkup ~30s" true (sec !b.Breakdown.linkup > 25.0);
  List.iter
    (fun vm -> Alcotest.(check bool) "home again" true (Node.has_ib (Vm.host vm)))
    (Ninja.vms ninja);
  match List.rev !log with
  | [] -> Alcotest.fail "no iterations"
  | entries ->
    let _, last = List.nth entries (List.length entries - 1) in
    Alcotest.(check (option string)) "openib at the end" (Some "openib") last

let test_fence_protocols_equivalent () =
  (* The faithful multi-fence protocol of [Ninja.migrate] (Fig. 5) and the
     single-fence [Script] form of the same sequence must measure the same
     overhead (within the extra hypercall round-trips), and multi-fence
     must pause/resume the VMs once per phase. *)
  let run migrate =
    let sim, cluster = setup_agc () in
    let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
    let fences = ref 0 in
    ignore
      (Probe.attach (Cluster.probes cluster) (fun e ->
           match e.Probe.payload with Probe.Fence_enter _ -> incr fences | _ -> ()));
    let log = ref [] in
    ignore (Ninja.launch ninja ~procs_per_vm:1 (iteration_workload ~until:150.0 ~log));
    let b = ref Breakdown.zero in
    Sim.spawn sim (fun () ->
        Sim.sleep (Time.sec 5);
        b := migrate ninja;
        Ninja.wait_job ninja);
    Sim.run sim;
    (!b, !fences)
  in
  let multi, multi_fences =
    run (fun ninja -> Ninja.migrate ninja ~plan:(fun vm -> Vm.host vm) ())
  in
  let single, single_fences =
    run (fun ninja ->
        let hosts = [ "ib00"; "ib01" ] in
        let ctl = Script.controller ninja in
        Script.wait_all ctl;
        Script.device_detach ctl ~tag:"vf0";
        Script.migration ctl ~src:hosts ~dst:hosts;
        Script.device_attach ctl ~host:"04:00.0" ~tag:"vf0";
        Script.signal ctl;
        Script.quit ctl)
  in
  Alcotest.(check int) "three fences" 3 multi_fences;
  Alcotest.(check int) "one fence" 1 single_fences;
  check_near "equal totals" 0.5 (sec single.Breakdown.total) (sec multi.Breakdown.total);
  check_near "equal hotplug" 0.1
    (sec (Breakdown.hotplug single))
    (sec (Breakdown.hotplug multi));
  check_near "equal linkup" 0.5 (sec single.Breakdown.linkup) (sec multi.Breakdown.linkup)

let test_script_lang_parse () =
  (match Script_lang.parse Script_lang.fig5 with
  | Ok commands ->
    Alcotest.(check (list string)) "fig5 commands"
      [
        "wait_all"; "device_detach vf0"; "migration ib00,ib01 eth00,eth01"; "signal";
        "wait_all"; "migration eth00,eth01 ib00,ib01"; "device_attach 04:00.0 vf0"; "signal";
        "quit";
      ]
      (List.map Script_lang.command_to_string commands)
  | Error msg -> Alcotest.failf "fig5 failed to parse: %s" msg);
  (match Script_lang.parse "wait_all\nfrobnicate x\n" with
  | Error msg -> Alcotest.(check string) "line number" "line 2: unknown command \"frobnicate\"" msg
  | Ok _ -> Alcotest.fail "expected parse error");
  match Script_lang.parse "migration ib00,ib01 eth00\n" with
  | Error msg -> Alcotest.(check string) "length check" "line 1: hostlist lengths differ" msg
  | Ok _ -> Alcotest.fail "expected parse error"

let test_script_lang_execute () =
  let sim, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
  let log = ref [] in
  ignore (Ninja.launch ninja ~procs_per_vm:1 (iteration_workload ~until:220.0 ~log));
  let b = ref Breakdown.zero in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 5);
      let commands = Result.get_ok (Script_lang.parse Script_lang.fig5) in
      b := Script_lang.execute ninja commands;
      Ninja.wait_job ninja);
  Sim.run sim;
  (* Fallback + recovery happened: back on IB, with one recovery linkup. *)
  List.iter
    (fun vm -> Alcotest.(check bool) "home again" true (Node.has_ib (Vm.host vm)))
    (Ninja.vms ninja);
  Alcotest.(check bool) "one linkup accumulated" true
    (sec !b.Breakdown.linkup > 25.0 && sec !b.Breakdown.linkup < 35.0)

let test_script_lang_protocol_misuse () =
  let sim, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
  let log = ref [] in
  ignore (Ninja.launch ninja ~procs_per_vm:1 (iteration_workload ~until:20.0 ~log));
  let failed = ref false in
  Sim.spawn sim (fun () ->
      (match Script_lang.execute ninja [ Script_lang.Device_detach "vf0" ] with
      | _ -> ()
      | exception Failure _ -> failed := true);
      Ninja.wait_job ninja);
  Sim.run sim;
  Alcotest.(check bool) "op before wait_all rejected" true !failed

let test_migrate_requires_launch () =
  let _, cluster = setup_agc () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
  Alcotest.check_raises "not launched" Ninja.Not_launched (fun () ->
      ignore (Ninja.self_migration ninja))

let () =
  Alcotest.run "ninja_core"
    [
      ( "ninja",
        [
          Alcotest.test_case "setup attaches HCAs" `Quick test_setup_attaches_hcas;
          Alcotest.test_case "fallback switches transport" `Quick test_fallback_switches_transport;
          Alcotest.test_case "fallback breakdown" `Quick test_fallback_breakdown_shape;
          Alcotest.test_case "recovery restores IB" `Quick test_recovery_restores_ib;
          Alcotest.test_case "self-migration ~ Table II" `Quick test_self_migration_matches_table2;
          Alcotest.test_case "no normal-operation overhead" `Quick
            test_no_overhead_during_normal_operation;
          Alcotest.test_case "consolidation over-commit" `Quick test_consolidation_two_vms_per_host;
          Alcotest.test_case "checkpoint to store" `Quick test_checkpoint_to_store;
          Alcotest.test_case "Fig.5 script flow" `Quick test_script_fig5_flow;
          Alcotest.test_case "fence protocols equivalent" `Quick test_fence_protocols_equivalent;
          Alcotest.test_case "script language parse" `Quick test_script_lang_parse;
          Alcotest.test_case "script language execute" `Quick test_script_lang_execute;
          Alcotest.test_case "script protocol misuse" `Quick test_script_lang_protocol_misuse;
          Alcotest.test_case "migrate requires launch" `Quick test_migrate_requires_launch;
        ] );
    ]
