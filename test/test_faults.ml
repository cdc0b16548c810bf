(* Deterministic failure-scenario suite for the fault-injection layer:
   injector semantics, retry-schedule arithmetic, and full Ninja migrations
   under injected faults (retry to completion, or rollback to the source
   with device state restored).

   Every simulation is seeded from NINJA_TEST_SEED (default 1) so the CI
   matrix can re-run the whole suite under several fixed seeds and fail on
   any flake. *)

open Ninja_engine
open Ninja_faults
open Ninja_hardware
open Ninja_vmm
open Ninja_mpi
open Ninja_metrics
open Ninja_core

let env_seed =
  match Sys.getenv_opt "NINJA_TEST_SEED" with
  | Some s -> ( try Int64.of_string s with Failure _ -> 1L)
  | None -> 1L

let sec = Time.to_sec_f

let check_float = Alcotest.(check (float 1e-9))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let fresh ?(faults = []) () =
  let sim = Sim.create ~seed:env_seed () in
  let cluster = Cluster.create sim ~spec:Spec.agc () in
  List.iter
    (fun text ->
      match Injector.parse_spec text with
      | Ok spec -> Injector.arm_spec (Cluster.injector cluster) spec
      | Error e -> Alcotest.failf "bad fault spec %S: %s" text e)
    faults;
  (sim, cluster)

let node cluster name = Cluster.find_node cluster name

let ib_hosts cluster n =
  List.init n (fun i -> node cluster (Printf.sprintf "ib%02d" i))

let eth_hosts cluster n =
  List.init n (fun i -> node cluster (Printf.sprintf "eth%02d" i))

let workload ~until ~log ctx =
  while Mpi.wtime ctx < until do
    Mpi.compute ctx ~seconds:0.3;
    Mpi.allreduce ctx ~bytes:2.0e8;
    Mpi.checkpoint_point ctx;
    if Mpi.rank ctx = 0 then log := Mpi.wtime ctx :: !log
  done

(* A 2-VM job on ib00/ib01; one migration to [dsts] fires at t = 5 s.
   A probe subscriber is attached before the run; its events come back in
   emission order. *)
let run_scenario ?(faults = []) ?(until = 120.0) ~dsts () =
  let sim, cluster = fresh ~faults () in
  let events = ref [] in
  ignore (Probe.attach (Cluster.probes cluster) (fun e -> events := e :: !events));
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
  let log = ref [] in
  ignore (Ninja.launch ninja ~procs_per_vm:1 (workload ~until ~log));
  let b = ref Breakdown.zero in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 5);
      b := Ninja.fallback ninja ~dsts:(dsts cluster) ();
      Ninja.wait_job ninja);
  Sim.run sim;
  (ninja, cluster, !b, List.rev !log, List.rev !events)

let has_event events p = List.exists (fun (e : Probe.event) -> p e.Probe.payload) events

let fault_fired ?point events =
  has_event events (function
    | Probe.Fault f -> Option.fold ~none:true ~some:(String.equal f.point) point
    | _ -> false)

let outcome_is ninja expected =
  match (Ninja.last_outcome ninja, expected) with
  | Some Ninja.Completed, `Completed -> true
  | Some (Ninja.Rolled_back _), `Rolled_back -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Injector unit tests *)

let test_parse_spec_basics () =
  (match Injector.parse_spec "precopy-abort@vm0:t=12" with
  | Ok s ->
    Alcotest.(check bool) "point" true (s.Injector.point = Injector.Precopy_abort);
    Alcotest.(check (option string)) "site" (Some "vm0") s.Injector.site;
    (match s.Injector.trigger with
    | Injector.At t -> check_float "at 12s" 12.0 (sec t)
    | _ -> Alcotest.fail "expected an At trigger");
    Alcotest.(check int) "default count" 1 s.Injector.count
  | Error e -> Alcotest.fail e);
  (match Injector.parse_spec "qmp-timeout:p=0.25,count=inf" with
  | Ok s ->
    Alcotest.(check bool) "prob" true (s.Injector.trigger = Injector.Prob 0.25);
    Alcotest.(check bool) "unlimited" true (s.Injector.count = max_int)
  | Error e -> Alcotest.fail e);
  match Injector.parse_spec "node-death@eth03:n=2,count=3" with
  | Ok s ->
    Alcotest.(check bool) "nth" true (s.Injector.trigger = Injector.Nth 2);
    Alcotest.(check int) "count" 3 s.Injector.count;
    Alcotest.(check string) "round-trips" "node-death@eth03:n=2,count=3"
      (Injector.spec_to_string s)
  | Error e -> Alcotest.fail e

let test_parse_spec_errors () =
  List.iter
    (fun text ->
      match Injector.parse_spec text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected %S to be rejected" text)
    [
      "frobnicate";
      "qmp-timeout:n=1,p=0.5";
      "precopy-abort:x=1";
      "precopy-abort:n=0";
      "qmp-timeout:p=1.5";
      "agent-crash@";
      "attach-fail:count=0";
      "node-death:t";
    ]

let test_injector_nth_and_budget () =
  let sim = Sim.create ~seed:env_seed () in
  let inj = Injector.create sim in
  Injector.arm inj ~site:"vm0" (Injector.Nth 3) Injector.Precopy_abort;
  let fires =
    List.init 5 (fun _ -> Injector.fire inj Injector.Precopy_abort ~site:"vm0")
  in
  Alcotest.(check (list bool)) "exactly the 3rd hit fires"
    [ false; false; true; false; false ] fires;
  Alcotest.(check int) "fired once" 1 (Injector.fired inj Injector.Precopy_abort);
  Alcotest.(check int) "all hits counted" 5 (Injector.hits inj Injector.Precopy_abort)

let test_injector_site_filter () =
  let sim = Sim.create ~seed:env_seed () in
  let inj = Injector.create sim in
  Injector.arm inj ~site:"vm1" ~count:max_int Injector.Always Injector.Qmp_timeout;
  Alcotest.(check bool) "other site does not match" false
    (Injector.fire inj Injector.Qmp_timeout ~site:"vm0");
  Alcotest.(check int) "non-matching hit not counted" 0
    (Injector.hits inj Injector.Qmp_timeout);
  Alcotest.(check bool) "matching site fires" true
    (Injector.fire inj Injector.Qmp_timeout ~site:"vm1");
  Injector.arm inj ~count:max_int Injector.Always Injector.Agent_crash;
  Alcotest.(check bool) "unsited arm matches any site" true
    (Injector.fire inj Injector.Agent_crash ~site:"whoever")

let test_injector_count_budget () =
  let sim = Sim.create ~seed:env_seed () in
  let inj = Injector.create sim in
  Injector.arm inj ~count:2 Injector.Always Injector.Agent_crash;
  let fires = List.init 4 (fun _ -> Injector.fire inj Injector.Agent_crash ~site:"x") in
  Alcotest.(check (list bool)) "budget of 2" [ true; true; false; false ] fires;
  let inj2 = Injector.create sim in
  Injector.arm inj2 ~count:max_int Injector.Always Injector.Agent_crash;
  Alcotest.(check bool) "count=inf never exhausts" true
    (List.init 20 (fun _ -> Injector.fire inj2 Injector.Agent_crash ~site:"x")
    |> List.for_all Fun.id)

let test_injector_at_time () =
  let sim = Sim.create ~seed:env_seed () in
  let inj = Injector.create sim in
  Injector.arm inj (Injector.At (Time.sec 5)) Injector.Precopy_stall;
  let early = Injector.fire inj Injector.Precopy_stall ~site:"x" in
  let late = ref false in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 10);
      late := Injector.fire inj Injector.Precopy_stall ~site:"x");
  Sim.run sim;
  Alcotest.(check bool) "before the deadline: no fire" false early;
  Alcotest.(check bool) "after the deadline: fires" true !late

let test_injector_prob_deterministic () =
  let draw seed =
    let sim = Sim.create ~seed:env_seed () in
    let inj = Injector.create ~seed sim in
    Injector.arm inj ~count:max_int (Injector.Prob 0.5) Injector.Qmp_timeout;
    List.init 32 (fun _ -> Injector.fire inj Injector.Qmp_timeout ~site:"x")
  in
  Alcotest.(check (list bool)) "same seed, same firing sequence" (draw 7L) (draw 7L);
  let sim = Sim.create ~seed:env_seed () in
  let never = Injector.create sim in
  Injector.arm never ~count:max_int (Injector.Prob 0.0) Injector.Qmp_timeout;
  Alcotest.(check bool) "p=0 never fires" false
    (List.init 16 (fun _ -> Injector.fire never Injector.Qmp_timeout ~site:"x")
    |> List.exists Fun.id);
  let always = Injector.create sim in
  Injector.arm always ~count:max_int (Injector.Prob 1.0) Injector.Qmp_timeout;
  Alcotest.(check bool) "p=1 always fires" true
    (List.init 16 (fun _ -> Injector.fire always Injector.Qmp_timeout ~site:"x")
    |> List.for_all Fun.id)

let test_injector_disabled_is_inert () =
  let sim = Sim.create ~seed:env_seed () in
  let inj = Injector.create sim in
  Alcotest.(check bool) "nothing armed" false (Injector.enabled inj);
  Alcotest.(check bool) "fire is a no-op" false
    (Injector.fire inj Injector.Node_death ~site:"eth00");
  Alcotest.(check int) "no hits recorded" 0 (Injector.hits inj Injector.Node_death);
  Injector.arm inj Injector.Always Injector.Node_death;
  Alcotest.(check bool) "armed" true (Injector.enabled inj);
  Injector.clear inj;
  Alcotest.(check bool) "clear disarms" false (Injector.enabled inj)

(* ------------------------------------------------------------------ *)
(* Retry-schedule unit tests *)

let in_fiber f =
  let sim = Sim.create ~seed:env_seed () in
  let result = ref None in
  Sim.spawn sim (fun () -> result := Some (f sim));
  Sim.run sim;
  Option.get !result

let test_backoff_values () =
  List.iter
    (fun (attempt, expect) ->
      check_float
        (Printf.sprintf "backoff after attempt %d" attempt)
        expect
        (sec (Retry.backoff ~attempt)))
    [ (1, 0.1); (2, 0.2); (3, 0.4); (4, 0.8); (6, 3.2); (7, 5.0); (8, 5.0) ]

let test_retry_run_success_after_failures () =
  let v, outcome, calls, elapsed =
    in_fiber (fun sim ->
        let calls = ref 0 in
        let v, o =
          Retry.run (fun ~attempt ->
              incr calls;
              if attempt < 3 then failwith "flaky" else attempt)
        in
        (v, o, !calls, sec (Sim.now sim)))
  in
  Alcotest.(check int) "returns 3rd attempt's value" 3 v;
  Alcotest.(check int) "attempts" 3 outcome.Retry.attempts;
  Alcotest.(check int) "calls" 3 calls;
  check_float "delay_total = 100ms + 200ms" 0.3 (sec outcome.Retry.delay_total);
  check_float "sim time advanced by the backoffs" 0.3 elapsed

let test_retry_exhaustion_reraises () =
  let calls, elapsed, raised =
    in_fiber (fun sim ->
        let calls = ref 0 in
        let raised =
          try
            ignore
              (Retry.run (fun ~attempt:_ ->
                   incr calls;
                   failwith "hopeless"));
            false
          with Failure m -> m = "hopeless"
        in
        (!calls, sec (Sim.now sim), raised))
  in
  Alcotest.(check bool) "last exception re-raised" true raised;
  Alcotest.(check int) "exactly max_attempts calls" Retry.max_attempts calls;
  check_float "slept 100ms + 200ms" 0.3 elapsed

(* ------------------------------------------------------------------ *)
(* Full migration scenarios under injected faults *)

let test_fault_free_run_clean () =
  let ninja, _, b, log, events = run_scenario ~dsts:(fun c -> eth_hosts c 2) () in
  check_float "retry is zero" 0.0 (sec b.Breakdown.retry);
  Alcotest.(check bool) "completed" true (outcome_is ninja `Completed);
  Alcotest.(check bool) "no fault events" false (fault_fired events);
  Alcotest.(check bool) "job progressed" true (List.length log > 10)

let test_qmp_timeout_retried () =
  let ninja, _, b, _, events =
    run_scenario ~faults:[ "qmp-timeout@vm0:n=1" ] ~dsts:(fun c -> eth_hosts c 2) ()
  in
  Alcotest.(check bool) "completed despite the timeout" true (outcome_is ninja `Completed);
  List.iter
    (fun vm -> Alcotest.(check bool) "moved to the eth rack" false (Node.has_ib (Vm.host vm)))
    (Ninja.vms ninja);
  Alcotest.(check bool) "retry covers at least the timeout" true
    (sec b.Breakdown.retry >= sec Qmp.command_timeout);
  Alcotest.(check bool) "injection announced" true
    (fault_fired ~point:"qmp-timeout" events);
  Alcotest.(check bool) "backoff span" true
    (has_event events (function
       | Probe.Span_begin { name = "backoff"; _ } -> true
       | _ -> false))

let test_attach_fail_retried () =
  let ninja, _, b, _, events =
    run_scenario
      ~faults:[ "attach-fail@vm0:n=1" ]
      ~dsts:(fun c -> [ node c "ib02"; node c "ib03" ])
      ()
  in
  Alcotest.(check bool) "completed" true (outcome_is ninja `Completed);
  List.iter
    (fun vm ->
      Alcotest.(check bool) "HCA attached at the destination" true (Vm.has_bypass_device vm))
    (Ninja.vms ninja);
  Alcotest.(check bool) "retry time recorded" true (sec b.Breakdown.retry > 0.0);
  Alcotest.(check bool) "injection announced" true
    (fault_fired ~point:"attach-fail" events)

let test_precopy_stall_extends_migration () =
  let _, _, clean, _, _ = run_scenario ~dsts:(fun c -> eth_hosts c 2) () in
  let ninja, _, stalled, _, _ =
    run_scenario ~faults:[ "precopy-stall@vm0:n=1" ] ~dsts:(fun c -> eth_hosts c 2) ()
  in
  Alcotest.(check bool) "still completes" true (outcome_is ninja `Completed);
  (* A stall is pure added latency, not an error: no retry time. *)
  check_float "no retry time" 0.0 (sec stalled.Breakdown.retry);
  let extra = sec stalled.Breakdown.migration -. sec clean.Breakdown.migration in
  Alcotest.(check bool)
    (Printf.sprintf "migration extended by ~the stall (%.2fs extra)" extra)
    true
    (extra >= sec Ninja_vmm.Migration.precopy_stall_duration -. 0.5
    && extra <= sec Ninja_vmm.Migration.precopy_stall_duration +. 1.0)

let test_precopy_abort_once_retried () =
  let ninja, _, b, _, events =
    run_scenario ~faults:[ "precopy-abort@vm0:n=1" ] ~dsts:(fun c -> eth_hosts c 2) ()
  in
  Alcotest.(check bool) "completed on the retry" true (outcome_is ninja `Completed);
  List.iter
    (fun vm -> Alcotest.(check bool) "on the eth rack" false (Node.has_ib (Vm.host vm)))
    (Ninja.vms ninja);
  Alcotest.(check bool) "nonzero retry downtime" true (sec b.Breakdown.retry > 0.0);
  Alcotest.(check bool) "injection announced" true
    (fault_fired ~point:"precopy-abort" events)

let assert_restored_at_source ninja =
  List.iteri
    (fun i vm ->
      Alcotest.(check string)
        (Printf.sprintf "vm%d back on its source" i)
        (Printf.sprintf "ib%02d" i)
        (Vm.host vm).Node.name;
      Alcotest.(check bool) "HCA re-attached at the source" true (Vm.has_bypass_device vm);
      Alcotest.(check bool) "not left paused" true (Vm.state vm = Vm.Running))
    (Ninja.vms ninja)

let test_precopy_abort_forever_rolls_back () =
  let ninja, _, b, log, events =
    run_scenario ~faults:[ "precopy-abort:count=inf" ] ~dsts:(fun c -> eth_hosts c 2) ()
  in
  Alcotest.(check bool) "rolled back" true (outcome_is ninja `Rolled_back);
  assert_restored_at_source ninja;
  Alcotest.(check bool) "nonzero retry downtime" true (sec b.Breakdown.retry > 0.0);
  Alcotest.(check bool) "job ran to completion anyway" true
    (match List.rev log with [] -> false | t :: _ -> t > 100.0);
  Alcotest.(check bool) "rollback announced" true
    (has_event events (function Probe.Migrate_rollback _ -> true | _ -> false))

let test_agent_crash_retried () =
  let ninja, _, b, _, events =
    run_scenario ~faults:[ "agent-crash@vm0:n=1" ] ~dsts:(fun c -> eth_hosts c 2) ()
  in
  Alcotest.(check bool) "completed" true (outcome_is ninja `Completed);
  Alcotest.(check bool) "retry time recorded" true (sec b.Breakdown.retry > 0.0);
  Alcotest.(check bool) "injection announced" true
    (fault_fired ~point:"agent-crash" events)

let test_node_death_rolls_back () =
  let ninja, cluster, b, _, _ =
    run_scenario ~faults:[ "node-death@eth00:n=1" ] ~dsts:(fun c -> eth_hosts c 2) ()
  in
  (match Ninja.last_outcome ninja with
  | Some (Ninja.Rolled_back reason) ->
    Alcotest.(check bool) "reason names the dead node" true (contains reason "dead")
  | _ -> Alcotest.fail "expected a rollback");
  assert_restored_at_source ninja;
  Alcotest.(check bool) "the node stays dead" false
    (Cluster.node_alive cluster (node cluster "eth00"));
  Alcotest.(check bool) "nonzero retry downtime" true (sec b.Breakdown.retry > 0.0)

let test_rollback_double_failure_converges () =
  (* The second fault fires during the rollback's own re-attach phase:
     rollback must retry itself and still converge. *)
  let ninja, _, b, _, events =
    run_scenario
      ~faults:[ "precopy-abort:count=inf"; "attach-fail@vm0:n=1" ]
      ~dsts:(fun c -> eth_hosts c 2)
      ()
  in
  Alcotest.(check bool) "rolled back" true (outcome_is ninja `Rolled_back);
  assert_restored_at_source ninja;
  Alcotest.(check bool) "second fault fired" true
    (fault_fired ~point:"attach-fail" events);
  Alcotest.(check bool) "nonzero retry downtime" true (sec b.Breakdown.retry > 0.0)

let test_faulted_run_deterministic () =
  let run () =
    let ninja, _, b, _, events =
      run_scenario ~faults:[ "precopy-abort:count=inf" ] ~dsts:(fun c -> eth_hosts c 2) ()
    in
    ( sec b.Breakdown.total,
      sec b.Breakdown.retry,
      List.length events,
      List.map (fun vm -> (Vm.host vm).Node.name) (Ninja.vms ninja) )
  in
  let t1, r1, n1, hosts1 = run () in
  let t2, r2, n2, hosts2 = run () in
  check_float "identical total" t1 t2;
  check_float "identical retry time" r1 r2;
  Alcotest.(check int) "identical probe-event count" n1 n2;
  Alcotest.(check (list string)) "identical placement" hosts1 hosts2

let test_scheduler_reroutes_dead_destination () =
  let sim, cluster = fresh ~faults:[ "node-death@eth00:n=1" ] () in
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
  let log = ref [] in
  ignore (Ninja.launch ninja ~procs_per_vm:1 (workload ~until:120.0 ~log));
  let sched = Ninja_scheduler.Cloud_scheduler.create ninja in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 10);
      ignore
        (Ninja_scheduler.Cloud_scheduler.execute sched
           (Ninja_scheduler.Cloud_scheduler.Maintenance { avoid = Node.has_ib }));
      Ninja.wait_job ninja);
  Sim.run sim;
  Alcotest.(check bool) "trigger completed" true (outcome_is ninja `Completed);
  (match Ninja_scheduler.Cloud_scheduler.history sched with
  | [ record ] -> (
    match record.Ninja_scheduler.Cloud_scheduler.report with
    | Some r ->
      Alcotest.(check int) "no permits leaked" 0 r.Ninja_planner.Executor.permits_leaked;
      Alcotest.(check bool) "executor retried/rerouted" true
        (r.Ninja_planner.Executor.retries > 0)
    | None -> Alcotest.fail "expected an executor report")
  | _ -> Alcotest.fail "expected exactly one scheduler record");
  List.iter
    (fun vm ->
      Alcotest.(check bool) "VM evacuated off the IB rack" false (Node.has_ib (Vm.host vm));
      Alcotest.(check bool) "VM sits on a live node" true
        (Cluster.node_alive cluster (Vm.host vm)))
    (Ninja.vms ninja)

(* ------------------------------------------------------------------ *)
(* Property tests *)

let prop_migration_leaves_clean_state =
  QCheck.Test.make ~count:5 ~name:"successful migration leaves no paused VM, no missing HCA"
    QCheck.(pair bool (int_bound 1000))
    (fun (to_eth, salt) ->
      let sim = Sim.create ~seed:(Int64.add env_seed (Int64.of_int salt)) () in
      let cluster = Cluster.create sim ~spec:Spec.agc () in
      let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster 2) () in
      let log = ref [] in
      ignore (Ninja.launch ninja ~procs_per_vm:1 (workload ~until:100.0 ~log));
      Sim.spawn sim (fun () ->
          Sim.sleep (Time.sec 5);
          let dsts =
            if to_eth then eth_hosts cluster 2
            else [ node cluster "ib02"; node cluster "ib03" ]
          in
          ignore (Ninja.fallback ninja ~dsts ());
          Ninja.wait_job ninja);
      Sim.run sim;
      outcome_is ninja `Completed
      && List.for_all
           (fun vm ->
             Vm.state vm = Vm.Running
             && ((not (Node.has_ib (Vm.host vm))) || Vm.has_bypass_device vm))
           (Ninja.vms ninja))

let prop_executor_death_no_deadlock =
  QCheck.Test.make ~count:5
    ~name:"executor under destination death: no deadlock, permits restored"
    QCheck.(pair (int_range 0 2) (int_range 3 6))
    (fun (dead, n) ->
      let open Ninja_planner in
      let sim = Sim.create ~seed:env_seed () in
      let cluster = Cluster.create sim ~spec:Spec.agc () in
      Injector.arm (Cluster.injector cluster)
        ~site:(Printf.sprintf "eth%02d" dead)
        (Injector.Nth 1) Injector.Node_death;
      let vms =
        List.init n (fun i ->
            Vm.create cluster
              ~name:(Printf.sprintf "vm%d" i)
              ~host:(node cluster (Printf.sprintf "ib%02d" i))
              ~vcpus:4 ~mem_bytes:(Units.gb 4.0) ())
      in
      let table =
        List.mapi (fun i vm -> (vm, node cluster (Printf.sprintf "eth%02d" (i mod 3)))) vms
      in
      let plan = Plan.of_assignment cluster ~vms ~dst_of:(fun vm -> List.assq vm table) () in
      let spare = node cluster "eth07" in
      let ok = ref false in
      Sim.spawn sim (fun () ->
          let r = Executor.run cluster ~reroute:(fun _ -> Some spare) plan in
          ok :=
            r.Executor.permits_leaked = 0
            && List.length r.Executor.step_results = List.length (Plan.steps plan));
      (* A deadlock would raise Sim.Deadlock here; the property fails. *)
      Sim.run sim;
      !ok
      && List.for_all (fun vm -> Cluster.node_alive cluster (Vm.host vm)) vms)

let prop_rollback_converges_under_second_failure =
  QCheck.Test.make ~count:3 ~name:"rollback is idempotent under a second injected failure"
    QCheck.(int_range 0 2)
    (fun which ->
      let second =
        List.nth
          [ "attach-fail@vm0:n=1"; "agent-crash@vm0:n=1"; "qmp-timeout@vm0:n=1" ]
          which
      in
      let ninja, _cluster, b, _, _ =
        run_scenario
          ~faults:[ "precopy-abort:count=inf"; second ]
          ~dsts:(fun c -> eth_hosts c 2)
          ()
      in
      outcome_is ninja `Rolled_back
      && sec b.Breakdown.retry > 0.0
      && List.for_all
           (fun vm ->
             Node.has_ib (Vm.host vm)
             && Vm.has_bypass_device vm
             && Vm.state vm = Vm.Running)
           (Ninja.vms ninja))

let () =
  Alcotest.run "ninja_faults"
    [
      ( "injector",
        [
          Alcotest.test_case "spec parsing" `Quick test_parse_spec_basics;
          Alcotest.test_case "spec parse errors" `Quick test_parse_spec_errors;
          Alcotest.test_case "nth trigger and budget" `Quick test_injector_nth_and_budget;
          Alcotest.test_case "site filter" `Quick test_injector_site_filter;
          Alcotest.test_case "count budget" `Quick test_injector_count_budget;
          Alcotest.test_case "at-time trigger" `Quick test_injector_at_time;
          Alcotest.test_case "probabilistic determinism" `Quick
            test_injector_prob_deterministic;
          Alcotest.test_case "disabled injector is inert" `Quick
            test_injector_disabled_is_inert;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff values" `Quick test_backoff_values;
          Alcotest.test_case "success after failures" `Quick
            test_retry_run_success_after_failures;
          Alcotest.test_case "exhaustion re-raises" `Quick test_retry_exhaustion_reraises;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "fault-free run is clean" `Quick test_fault_free_run_clean;
          Alcotest.test_case "qmp timeout retried" `Quick test_qmp_timeout_retried;
          Alcotest.test_case "attach failure retried" `Quick test_attach_fail_retried;
          Alcotest.test_case "precopy stall adds latency" `Quick
            test_precopy_stall_extends_migration;
          Alcotest.test_case "precopy abort retried" `Quick test_precopy_abort_once_retried;
          Alcotest.test_case "persistent abort rolls back" `Quick
            test_precopy_abort_forever_rolls_back;
          Alcotest.test_case "agent crash retried" `Quick test_agent_crash_retried;
          Alcotest.test_case "node death rolls back" `Quick test_node_death_rolls_back;
          Alcotest.test_case "double failure converges" `Quick
            test_rollback_double_failure_converges;
          Alcotest.test_case "faulted run deterministic" `Quick
            test_faulted_run_deterministic;
          Alcotest.test_case "scheduler reroutes dead node" `Quick
            test_scheduler_reroutes_dead_destination;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_migration_leaves_clean_state;
            prop_executor_death_no_deadlock;
            prop_rollback_converges_under_second_failure;
          ] );
    ]
