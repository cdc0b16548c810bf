(* Tests for the SymVirt hypercall channel, controller and agents. *)

open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_symvirt

let check_near msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g +/- %g, got %g" msg expected tolerance actual

let setup n =
  let sim = Sim.create () in
  let cluster = Cluster.create sim ~spec:Spec.agc () in
  let vms =
    List.init n (fun i ->
        Vm.create cluster
          ~name:(Printf.sprintf "vm%d" i)
          ~host:(Cluster.find_node cluster (Printf.sprintf "ib%02d" i))
          ~vcpus:8 ~mem_bytes:(Units.gb 20.0) ())
  in
  (sim, cluster, vms)

let test_hypercall_wait_signal () =
  let sim, _, vms = setup 1 in
  let vm = List.hd vms in
  let ep = Hypercall.create vm in
  let resumed_at = ref 0.0 in
  Sim.spawn sim (fun () ->
      Hypercall.guest_wait ep;
      resumed_at := Time.to_sec_f (Sim.now sim));
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 5);
      Alcotest.(check int) "one waiter" 1 (Hypercall.waiting ep);
      Hypercall.host_signal ep);
  Sim.run sim;
  check_near "resumed at signal" 0.01 5.0 !resumed_at;
  Alcotest.(check int) "no waiters after" 0 (Hypercall.waiting ep)

let test_hypercall_await_waiters () =
  let sim, _, vms = setup 1 in
  let ep = Hypercall.create (List.hd vms) in
  let fence_at = ref 0.0 in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.sleep (Time.sec i);
        Hypercall.guest_wait ep)
  done;
  Sim.spawn sim (fun () ->
      Hypercall.await_waiters ep 3;
      fence_at := Time.to_sec_f (Sim.now sim);
      Hypercall.host_signal ep);
  Sim.run sim;
  check_near "fence when the last arrives" 0.01 3.0 !fence_at

let test_controller_fence_pauses_vms () =
  let sim, cluster, vms = setup 2 in
  let members =
    List.map (fun vm -> { Controller.vm; endpoint = Hypercall.create vm; procs = 2 }) vms
  in
  let ctl = Controller.create cluster ~members in
  (* 2 procs per VM: the fence must not open until all 4 are parked. *)
  List.iter
    (fun m ->
      for i = 1 to 2 do
        Sim.spawn sim (fun () ->
            Sim.sleep (Time.sec i);
            Hypercall.guest_wait m.Controller.endpoint)
      done)
    members;
  let fence_at = ref 0.0 in
  Sim.spawn sim (fun () ->
      Controller.wait_all ctl;
      fence_at := Time.to_sec_f (Sim.now sim);
      List.iter
        (fun vm -> Alcotest.(check bool) "paused at fence" true (Vm.state vm = Vm.Paused))
        vms;
      Controller.signal ctl;
      List.iter
        (fun vm -> Alcotest.(check bool) "resumed" true (Vm.state vm = Vm.Running))
        vms);
  Sim.run sim;
  check_near "fence at slowest waiter" 0.01 2.0 !fence_at

let test_agents_run_in_parallel () =
  let sim, cluster, vms = setup 4 in
  List.iter
    (fun vm -> Vm.attach_device vm (Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca))
    vms;
  let members =
    List.map (fun vm -> { Controller.vm; endpoint = Hypercall.create vm; procs = 1 }) vms
  in
  let ctl = Controller.create cluster ~members in
  let elapsed = ref 0.0 in
  Sim.spawn sim (fun () ->
      let t0 = Sim.now sim in
      ignore
        (Controller.run_agents ctl (fun _vm -> [ Qmp.Device_del { tag = "vf0"; noise = 1.0 } ]));
      elapsed := Time.to_sec_f (Time.diff (Sim.now sim) t0));
  Sim.run sim;
  (* 4 detaches concurrently: ~ detach_ib + QMP overhead, NOT 4x. *)
  check_near "parallel agents" 0.1 (Time.to_sec_f Calibration.detach_ib) !elapsed;
  List.iter
    (fun vm -> Alcotest.(check bool) "device gone" false (Vm.has_bypass_device vm))
    vms

let test_agent_failure_propagates () =
  let sim, cluster, vms = setup 1 in
  let members =
    List.map (fun vm -> { Controller.vm; endpoint = Hypercall.create vm; procs = 1 }) vms
  in
  let ctl = Controller.create cluster ~members in
  let failed = ref false in
  Sim.spawn sim (fun () ->
      match
        Controller.run_agents ctl (fun _vm ->
            [ Qmp.Device_del { tag = "missing"; noise = 1.0 } ])
      with
      | _ -> ()
      | exception Controller.Agent_failure _ -> failed := true);
  Sim.run sim;
  Alcotest.(check bool) "failure surfaced" true !failed

let test_parallel_migration_via_agents () =
  let sim, cluster, vms = setup 2 in
  let members =
    List.map (fun vm -> { Controller.vm; endpoint = Hypercall.create vm; procs = 1 }) vms
  in
  let ctl = Controller.create cluster ~members in
  let dsts =
    [ Cluster.find_node cluster "eth00"; Cluster.find_node cluster "eth01" ]
  in
  let plan vm = List.nth dsts (if String.equal (Vm.name vm) "vm0" then 0 else 1) in
  Sim.spawn sim (fun () ->
      List.iter Vm.pause vms;
      let results =
        Controller.run_agents ctl (fun vm ->
            [ Qmp.Migrate { dst = plan vm; transport = Migration.Tcp; mode = Migration.Precopy } ])
      in
      let stats =
        List.concat_map
          (fun (_, responses) ->
            List.filter (function Qmp.Migrated _ -> true | _ -> false) responses)
          results
      in
      Alcotest.(check int) "two results" 2 (List.length stats));
  Sim.run sim;
  List.iteri
    (fun i vm ->
      Alcotest.(check string) "moved to eth"
        (Printf.sprintf "eth%02d" i)
        (Vm.host vm).Node.name)
    vms

let () =
  Alcotest.run "ninja_symvirt"
    [
      ( "hypercall",
        [
          Alcotest.test_case "wait/signal" `Quick test_hypercall_wait_signal;
          Alcotest.test_case "await_waiters" `Quick test_hypercall_await_waiters;
        ] );
      ( "controller",
        [
          Alcotest.test_case "fence pauses VMs" `Quick test_controller_fence_pauses_vms;
          Alcotest.test_case "agents in parallel" `Quick test_agents_run_in_parallel;
          Alcotest.test_case "agent failure" `Quick test_agent_failure_propagates;
          Alcotest.test_case "parallel migration" `Quick test_parallel_migration_via_agents;
        ] );
    ]
