(* Control-plane tests: arrival processes, fair queues, footprint locks,
   the service loop (determinism, faults, requeue-not-strand), the
   experiment's parallel/serial identity and the CLI exit codes. *)

open Ninja_engine
open Ninja_hardware
open Ninja_controlplane

(* {1 Arrivals} *)

let times ~seed process ~horizon =
  Ninja_workloads.Arrivals.times (Prng.create ~seed) process ~horizon

let test_arrivals_deterministic () =
  let p = Ninja_workloads.Arrivals.Poisson { rate = 0.5 } in
  let a = times ~seed:42L p ~horizon:1000.0 in
  let b = times ~seed:42L p ~horizon:1000.0 in
  Alcotest.(check (list (float 0.0))) "same seed, same instants" a b;
  let c = times ~seed:43L p ~horizon:1000.0 in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_arrivals_shape () =
  let check_sorted name ts =
    Alcotest.(check bool) (name ^ " sorted") true (List.sort compare ts = ts);
    List.iter
      (fun t -> Alcotest.(check bool) (name ^ " in horizon") true (t >= 0.0 && t < 500.0))
      ts
  in
  let poisson = times ~seed:7L (Poisson { rate = 0.2 }) ~horizon:500.0 in
  check_sorted "poisson" poisson;
  (* Mean count is rate*horizon = 100; a 4-sigma excursion is < 40. *)
  let n = List.length poisson in
  Alcotest.(check bool) "poisson count plausible" true (n > 60 && n < 140);
  let bursts =
    times ~seed:7L (Bursts { period = 100.0; size = 3; spread = 5.0 }) ~horizon:500.0
  in
  check_sorted "bursts" bursts;
  Alcotest.(check int) "bursts count" 15 (List.length bursts);
  let overlay =
    times ~seed:7L
      (Overlay [ Poisson { rate = 0.2 }; Bursts { period = 100.0; size = 3; spread = 5.0 } ])
      ~horizon:500.0
  in
  check_sorted "overlay" overlay

let test_arrivals_validation () =
  let bad p =
    Alcotest.(check bool) "rejected" true
      (Result.is_error (Ninja_workloads.Arrivals.validate p))
  in
  bad (Poisson { rate = -1.0 });
  bad (Bursts { period = 0.0; size = 3; spread = 1.0 });
  bad (Bursts { period = 10.0; size = -1; spread = 1.0 });
  bad (Overlay []);
  Alcotest.(check bool) "good accepted" true
    (Result.is_ok (Ninja_workloads.Arrivals.validate (Poisson { rate = 0.0 })))

(* {1 Fair queue} *)

let test_fair_queue_order () =
  let q = Fair_queue.create () in
  Fair_queue.register q ~name:"a" ~weight:2.0;
  Fair_queue.register q ~name:"b" ~weight:1.0;
  Fair_queue.push q ~tenant:"a" 1;
  Fair_queue.push q ~tenant:"a" 2;
  Fair_queue.push q ~tenant:"b" 3;
  Alcotest.(check int) "total length" 3 (Fair_queue.length q);
  (* FIFO within a tenant. *)
  Alcotest.(check int) "a head" 1 (Fair_queue.pop q ~tenant:"a");
  Fair_queue.push_front q ~tenant:"a" 1;
  Alcotest.(check int) "push_front restores the head" 1 (Fair_queue.pop q ~tenant:"a");
  (* Equal work costs a weight-2 tenant half the virtual time. *)
  Fair_queue.charge q ~tenant:"a" 4.0;
  Fair_queue.charge q ~tenant:"b" 4.0;
  let vt name = List.assoc name (List.map (fun (n, v, _) -> (n, v)) (Fair_queue.heads q)) in
  Alcotest.(check (float 1e-9)) "a vtime" 2.0 (vt "a");
  Alcotest.(check (float 1e-9)) "b vtime" 4.0 (vt "b")

let test_fair_queue_idle_rejoin () =
  let q = Fair_queue.create () in
  Fair_queue.register q ~name:"busy" ~weight:1.0;
  Fair_queue.register q ~name:"idle" ~weight:1.0;
  Fair_queue.push q ~tenant:"busy" 0;
  Fair_queue.charge q ~tenant:"busy" 10.0;
  (* The idle tenant rejoins at the pack's virtual now, not at 0 — it must
     not replay banked credit. *)
  Fair_queue.push q ~tenant:"idle" 1;
  let heads = List.map (fun (n, v, _) -> (n, v)) (Fair_queue.heads q) in
  Alcotest.(check (float 1e-9)) "rejoins level" 10.0 (List.assoc "idle" heads)

(* {1 Locks} *)

let test_locks () =
  let l = Locks.create () in
  let c1 =
    Option.get
      (Locks.try_claim l ~batch:1 ~vms:[ "vm0"; "vm1" ] ~hosts:[ 1; 2 ]
         ~reserved:[ (2, 8e9) ])
  in
  Alcotest.(check bool) "vm0 taken" false (Locks.vm_free l "vm0");
  Alcotest.(check bool) "host 2 taken" false (Locks.host_free l 2);
  Alcotest.(check bool) "host 2 free for owner" true (Locks.host_free l ~batch:1 2);
  Alcotest.(check (float 0.0)) "reservation" 8e9 (Locks.reserved_bytes l 2);
  (* All-or-nothing: a claim touching any taken VM or host fails whole. *)
  Alcotest.(check bool) "overlapping claim refused" true
    (Locks.try_claim l ~batch:2 ~vms:[ "vm2" ] ~hosts:[ 2; 3 ] ~reserved:[] = None);
  Alcotest.(check bool) "host 3 untouched by failed claim" true (Locks.host_free l 3);
  Locks.extend l c1 ~host:4 ~bytes:1e9;
  Alcotest.(check bool) "extended host taken" false (Locks.host_free l 4);
  let c2 = Option.get (Locks.try_claim l ~batch:2 ~vms:[ "vm2" ] ~hosts:[ 3 ] ~reserved:[]) in
  Alcotest.check_raises "extend onto another batch's host"
    (Invalid_argument "Locks.extend: node 3 is claimed by another batch") (fun () ->
      Locks.extend l c1 ~host:3 ~bytes:1.0);
  Locks.release l c1;
  Locks.release l c1;
  (* idempotent *)
  Alcotest.(check bool) "released" true
    (Locks.vm_free l "vm0" && Locks.host_free l 2 && Locks.host_free l 4);
  Alcotest.(check (float 0.0)) "reservation returned" 0.0 (Locks.reserved_bytes l 2);
  Locks.release l c2;
  Alcotest.(check (list int)) "nothing claimed" [] (Locks.claimed_hosts l)

(* {1 Service helpers} *)

type harness = {
  sim : Sim.t;
  cluster : Cluster.t;
  svc : Service.t;
  checker : Ninja_check.Checker.t;
}

let harness ?(spec = Spec.make ~ib_nodes:2 ~eth_nodes:2 ()) ?(seed = 11L) ?(faults = [])
    ?(config = Service.default_config) ?(tenants = [ ("t0", 2.0); ("t1", 1.0) ])
    ?(vms_per_tenant = 1) () =
  let sim = Sim.create ~seed () in
  let cluster = Cluster.create sim ~spec () in
  List.iter
    (fun text ->
      match Ninja_faults.Injector.parse_spec text with
      | Ok spec -> Ninja_faults.Injector.arm_spec (Cluster.injector cluster) spec
      | Error msg -> failwith msg)
    faults;
  let specs =
    Service.boot_tenants cluster ~tenants ~vms_per_tenant ~mem_bytes:(Units.gb 8.0)
  in
  let svc = Service.create cluster ~config ~tenants:specs () in
  let checker = Ninja_check.Checker.install cluster ~vms:(Service.vms svc) in
  { sim; cluster; svc; checker }

let finish h =
  Sim.run h.sim;
  Ninja_check.Checker.check_finish h.checker;
  Ninja_check.Checker.detach h.checker;
  Alcotest.(check (list string))
    "no invariant violations" []
    (List.map
       (fun v -> Format.asprintf "%a" Ninja_check.Checker.pp_violation v)
       (Ninja_check.Checker.violations h.checker));
  match Service.accounting h.svc with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "accounting: %s" msg

let outcome_names h =
  List.map (fun (_, o) -> Service.outcome_name o) (Service.outcomes h.svc)

(* {1 Service} *)

let test_service_smoke () =
  let h = harness () in
  Service.inject h.svc ~after:(Time.sec 1) (fun svc ->
      Service.make svc ~tenant:"t0" ~kind:Request.Fallback ());
  Service.inject h.svc ~after:(Time.sec 100) (fun svc ->
      Service.make svc ~tenant:"t0" ~kind:Request.Return ());
  Service.inject h.svc ~after:(Time.sec 200) (fun svc ->
      Service.make svc ~tenant:"ops" ~kind:(Request.Evacuate { node = "ib01" }) ());
  finish h;
  Alcotest.(check (list string))
    "all completed"
    [ "completed"; "completed"; "completed" ]
    (outcome_names h);
  (* The fallback moved t0-vm0 off InfiniBand, the return brought it back,
     the evacuation moved t1-vm0 off ib01. *)
  Alcotest.(check bool) "t0-vm0 back on IB" true
    (Node.has_ib (Ninja_vmm.Vm.host (List.nth (Service.vms h.svc) 0)));
  Alcotest.(check bool) "ib01 evacuated" true
    ((Ninja_vmm.Vm.host (List.nth (Service.vms h.svc) 1)).Node.name <> "ib01");
  Alcotest.(check bool) "downtime recorded" true
    (Ninja_telemetry.Metrics.samples (Service.metrics h.svc) "ctl.vm.downtime.seconds"
    <> [])

let test_service_admission () =
  let config = { Service.default_config with queue_cap = 1; max_inflight = 1 } in
  let h = harness ~config () in
  (* Five requests in the same instant against a cap-1 queue: the head is
     dispatched immediately, one sits in the queue, the rest bounce. *)
  for _ = 1 to 5 do
    Service.inject h.svc ~after:(Time.sec 1) (fun svc ->
        Service.make svc ~tenant:"t0" ~kind:Request.Fallback ())
  done;
  Service.inject h.svc ~after:(Time.sec 1) (fun svc ->
      Service.make svc ~tenant:"nosuch" ~kind:Request.Rebalance ());
  finish h;
  Alcotest.(check bool) "queue-full rejections" true
    (Service.count h.svc "ctl.rejected.queue-full" >= 1.0);
  Alcotest.(check (float 0.0)) "unknown tenant rejected" 1.0
    (Service.count h.svc "ctl.rejected.unknown-tenant");
  Alcotest.(check int) "every submission got an outcome" (Service.submitted h.svc)
    (List.length (Service.outcomes h.svc))

let run_once ~seed =
  let h = harness ~seed () in
  Service.open_loop h.svc
    ~process:(Overlay [ Poisson { rate = 0.05 }; Bursts { period = 240.0; size = 3; spread = 10.0 } ])
    ~horizon:900.0;
  finish h;
  ( Service.log h.svc,
    Ninja_telemetry.Metrics.to_csv (Service.metrics h.svc),
    outcome_names h )

let test_service_deterministic () =
  let log_a, csv_a, out_a = run_once ~seed:1337L in
  let log_b, csv_b, out_b = run_once ~seed:1337L in
  Alcotest.(check (list string)) "request logs identical" log_a log_b;
  Alcotest.(check string) "metrics CSV identical" csv_a csv_b;
  Alcotest.(check (list string)) "outcomes identical" out_a out_b;
  let log_c, _, _ = run_once ~seed:7L in
  Alcotest.(check bool) "different seed differs" true (log_a <> log_c)

let test_requeue_on_node_death () =
  (* Two concurrent fallback batches: t0 -> eth00, t1 -> eth01. eth01 dies
     as the second migration starts; its reroute alternative (eth00) is
     claimed by the first batch, so the batch rolls back and the request
     re-queues — and completes once eth00 frees up. Faults delay requests,
     they must not lose them. *)
  let h = harness ~faults:[ "node-death@eth01" ] ~tenants:[ ("t0", 1.0); ("t1", 1.0) ] () in
  Service.inject h.svc ~after:(Time.sec 1) (fun svc ->
      Service.make svc ~tenant:"t0" ~kind:Request.Fallback ());
  Service.inject h.svc ~after:(Time.sec 1) (fun svc ->
      Service.make svc ~tenant:"t1" ~kind:Request.Fallback ());
  finish h;
  Alcotest.(check (list string))
    "both requests completed despite the node death"
    [ "completed"; "completed" ] (outcome_names h);
  Alcotest.(check bool) "the failed batch rolled back" true
    (Service.count h.svc "ctl.batches.rolled_back" >= 1.0);
  Alcotest.(check bool) "the request was re-queued" true
    (Service.count h.svc "ctl.requests.requeued" >= 1.0);
  Alcotest.(check (float 0.0)) "no VM stranded" 0.0
    (Service.count h.svc "ctl.vms.stranded");
  List.iter
    (fun vm ->
      Alcotest.(check bool)
        (Ninja_vmm.Vm.name vm ^ " ends on a live Ethernet node")
        true
        (let host = Ninja_vmm.Vm.host vm in
         Cluster.node_alive h.cluster host && not (Node.has_ib host)))
    (Service.vms h.svc)

let test_reroute_counts_reservations () =
  (* t0's fallback packs t0-vm0 onto eth02 (empty) and t0-vm1 onto eth00
     (t1-vm0's host, which ties eth01 at one VM and has the lower id).
     eth02 dies as the first migration starts. Its reroute weighs eth00
     by its resident VM plus the bytes this batch reserved there for
     t0-vm1, so the lighter eth01 wins; a load that left the reservation
     out would tie the two and stack t0-vm0 onto eth00. *)
  let h =
    harness ~spec:(Spec.make ~ib_nodes:2 ~eth_nodes:3 ()) ~faults:[ "node-death@eth02" ]
      ~tenants:[ ("t0", 1.0); ("t1", 1.0) ] ~vms_per_tenant:2 ()
  in
  Service.inject h.svc ~after:(Time.sec 1) (fun svc ->
      Service.make svc ~tenant:"t0" ~kind:Request.Fallback ());
  finish h;
  Alcotest.(check (list string)) "completed" [ "completed" ] (outcome_names h);
  Alcotest.(check (float 0.0)) "no rollback" 0.0
    (Service.count h.svc "ctl.batches.rolled_back");
  let host name =
    (Ninja_vmm.Vm.host
       (List.find (fun vm -> Ninja_vmm.Vm.name vm = name) (Service.vms h.svc)))
      .Node.name
  in
  Alcotest.(check string) "t0-vm1 where it was packed" "eth00" (host "t0-vm1");
  Alcotest.(check string) "t0-vm0 rerouted to the lighter host" "eth01" (host "t0-vm0")

let test_failed_after_attempts () =
  (* Every pre-copy toward t0-vm0 aborts, forever: each dispatch rolls
     back, the request re-queues, and after 3 attempts it is Failed —
     with the VM safely at its origin and the books balanced. *)
  let h = harness ~faults:[ "precopy-abort@t0-vm0:count=inf" ] () in
  Service.inject h.svc ~after:(Time.sec 1) (fun svc ->
      Service.make svc ~tenant:"t0" ~kind:Request.Fallback ());
  finish h;
  (match Service.outcomes h.svc with
  | [ (_, Service.Failed _) ] -> ()
  | other ->
    Alcotest.failf "expected one Failed outcome, got [%s]"
      (String.concat "; " (List.map (fun (_, o) -> Service.outcome_name o) other)));
  Alcotest.(check (float 0.0)) "requeued twice" 2.0
    (Service.count h.svc "ctl.requests.requeued");
  Alcotest.(check (float 0.0)) "three rollbacks" 3.0
    (Service.count h.svc "ctl.batches.rolled_back");
  Alcotest.(check bool) "vm still home on IB" true
    (Node.has_ib (Ninja_vmm.Vm.host (List.hd (Service.vms h.svc))))

let test_deadline_drop () =
  (* With one batch slot taken by a slow fallback, a 1-second deadline has
     expired by the time the second request reaches the head of the queue:
     it must be dropped at dispatch, not served late. *)
  let config = { Service.default_config with max_inflight = 1 } in
  let h = harness ~config () in
  Service.inject h.svc ~after:(Time.sec 1) (fun svc ->
      Service.make svc ~tenant:"t0" ~kind:Request.Fallback ());
  Service.inject h.svc ~after:(Time.sec 2) (fun svc ->
      Service.make svc ~tenant:"t1" ~kind:Request.Fallback
        ~deadline:(Time.sec 1) ());
  finish h;
  Alcotest.(check (list string))
    "served then dropped for deadline"
    [ "completed"; "dropped:deadline-missed" ]
    (outcome_names h);
  Alcotest.(check (float 0.0)) "expiry counted" 1.0
    (Service.count h.svc "ctl.requests.expired")

(* {1 Destination swaps (adaptive placement)} *)

(* A leaf-spine datacenter and skewed tenant matrices: the setting where
   exchanging two destinations can actually lower communication cost. *)
let swap_harness ?(config = Service.default_config) () =
  let sim = Sim.create ~seed:11L () in
  let topo =
    match
      Topology.v ~tier:Topology.Leaf_spine ~pods:2 ~racks_per_pod:2
        ~hosts_per_rack:4 ~ib_pods:1 ~oversub:4.0 ~mem_gb:32.0 ~seed:11L ()
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let cluster = Cluster.create sim ~topology:topo () in
  let tenants =
    Service.boot_tenants
      ~traffic:
        (Ninja_workloads.Traffic.Skewed
           { elephants = 2; rate = Ninja_workloads.Traffic.default_rate; factor = 16.0 })
      cluster
      ~tenants:[ ("t0", 3.0); ("t1", 2.0); ("t2", 1.0) ]
      ~vms_per_tenant:3 ~mem_bytes:(Units.gb 2.0)
  in
  let traffic =
    List.concat_map (fun (ts : Service.tenant_spec) -> ts.Service.traffic) tenants
  in
  let svc = Service.create cluster ~config ~tenants () in
  let checker = Ninja_check.Checker.install cluster ~vms:(Service.vms svc) in
  ({ sim; cluster; svc; checker }, Ninja_planner.Cost_model.env cluster ~traffic ())

let test_swap_request_exchanges_hosts () =
  let h, _ = swap_harness () in
  let host name =
    (Ninja_vmm.Vm.host
       (List.find (fun vm -> Ninja_vmm.Vm.name vm = name) (Service.vms h.svc)))
      .Node.name
  in
  Alcotest.(check string) "swap kind name" "swap"
    (Request.kind_name (Request.Swap { vm_a = "x"; vm_b = "y" }));
  let a0 = host "t0-vm0" and b0 = host "t0-vm1" in
  Alcotest.(check bool) "distinct starting hosts" true (a0 <> b0);
  Service.inject h.svc ~after:(Time.sec 1) (fun svc ->
      Service.make svc ~tenant:"t0"
        ~kind:(Request.Swap { vm_a = "t0-vm0"; vm_b = "t0-vm1" })
        ());
  finish h;
  Alcotest.(check (list string)) "completed" [ "completed" ] (outcome_names h);
  Alcotest.(check string) "t0-vm0 took t0-vm1's host" b0 (host "t0-vm0");
  Alcotest.(check string) "t0-vm1 took t0-vm0's host" a0 (host "t0-vm1");
  Alcotest.(check (float 0.0)) "counted as applied" 1.0
    (Service.count h.svc "ctl.swap.applied")

let test_auto_swap_converges () =
  (* Under [auto_swap] the dispatcher keeps submitting the best improving
     exchange until none pays for its migrations: the communication cost
     of the boot placement must strictly drop, and the policy must
     terminate in a noop rather than ping-pong forever. *)
  let config = { Service.default_config with Service.auto_swap = Some Service.Declared } in
  let h, cost_env = swap_harness ~config () in
  let cost_start = Ninja_planner.Cost_model.current_cost cost_env in
  (* On the quiescent boot placement no exchange pays for its migrations
     (that very noop is asserted at the end) — churn the tenants so the
     placement degrades and the policy has something to recover. *)
  List.iteri
    (fun i tenant ->
      Service.inject h.svc
        ~after:(Time.of_sec_f (10.0 +. (3.0 *. float_of_int i)))
        (fun svc -> Service.make svc ~tenant ~kind:Request.Fallback ());
      Service.inject h.svc
        ~after:(Time.of_sec_f (45.0 +. (3.0 *. float_of_int i)))
        (fun svc -> Service.make svc ~tenant ~kind:Request.Return ()))
    [ "t0"; "t1"; "t2" ];
  finish h;
  let cost_end = Ninja_planner.Cost_model.current_cost cost_env in
  Alcotest.(check bool) "proposals made" true
    (Service.count h.svc "ctl.swap.proposed" >= 1.0);
  Alcotest.(check bool) "at least one swap applied" true
    (Service.count h.svc "ctl.swap.applied" >= 1.0);
  Alcotest.(check bool) "policy terminated in a noop" true
    (Service.count h.svc "ctl.swap.noop" >= 1.0);
  Alcotest.(check bool)
    (Printf.sprintf "communication cost improves (%.4f -> %.4f)" cost_start
       cost_end)
    true (cost_end < cost_start);
  Alcotest.(check bool) "service quiesced" true (Service.quiesced h.svc);
  (* Convergence is stable: pricing the final placement proposes nothing. *)
  Alcotest.(check bool) "a further proposal is a noop" false
    (Service.propose_swap h.svc)

(* {1 Swap pricing against the per-pair reference} *)

(* The reference swap pricing: every pair builds its environment,
   filters the whole matrix for the entries incident to it, resolves
   their endpoints through the cluster's registry and prices both
   migrations. *)
let oracle_swap_gain cluster traffic a b =
  let env = Ninja_planner.Cost_model.env cluster ~traffic () in
  let ha = Ninja_vmm.Vm.host a and hb = Ninja_vmm.Vm.host b in
  let na = Ninja_vmm.Vm.name a and nb = Ninja_vmm.Vm.name b in
  let lookup name = Cluster.vm_node cluster ~name in
  let swapped name =
    if String.equal name na then Some hb
    else if String.equal name nb then Some ha
    else lookup name
  in
  let incident =
    List.filter
      (fun (x, y, _) ->
        String.equal x na || String.equal y na || String.equal x nb || String.equal y nb)
      traffic
  in
  let cost lk =
    List.fold_left
      (fun acc (x, y, rate) ->
        match (lk x, lk y) with
        | Some nx, Some ny -> acc +. (rate *. Ninja_planner.Cost_model.pair_cost env nx ny)
        | _ -> acc)
      0.0 incident
  in
  let saved = cost lookup -. cost swapped in
  let mig =
    Ninja_planner.Cost_model.move_seconds env ~vm:a ~src:ha ~dst:hb ()
    +. Ninja_planner.Cost_model.move_seconds env ~vm:b ~src:hb ~dst:ha ()
  in
  (Ninja_planner.Cost_model.default_horizon *. saved) -. mig

(* The reference pair loop over a fleet whose VMs are all unlocked. *)
let oracle_propose cluster vms traffic =
  let vms = Array.of_list vms in
  let n = Array.length vms in
  let best = ref None in
  let best_gain = ref 1e-9 in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      let a = vms.(i) and b = vms.(j) in
      let ha = Ninja_vmm.Vm.host a and hb = Ninja_vmm.Vm.host b in
      if
        ha.Node.id <> hb.Node.id
        && (not (Ninja_vmm.Vm.is_lost a))
        && (not (Ninja_vmm.Vm.is_lost b))
        && Cluster.node_alive cluster ha
        && Cluster.node_alive cluster hb
        && Node.has_ib ha = Node.has_ib hb
      then begin
        let g = oracle_swap_gain cluster traffic a b in
        if g > !best_gain then begin
          best_gain := g;
          best := Some (a, b)
        end
      end
    done
  done;
  Option.map (fun (a, b) -> (Ninja_vmm.Vm.name a, Ninja_vmm.Vm.name b, !best_gain)) !best

(* A random priced fleet on a generated datacenter: VMs of varied
   footprints, some lost, a node sometimes dead, background flows that
   load the links, and a declared matrix split over two tenants with
   duplicate rows, self-entries, entries between fleet VMs (so the winning
   pair often shares one) and entries naming VMs outside the fleet, some
   registered with the cluster and some unknown to it. *)
let swap_pricing_prop =
  QCheck.Test.make ~name:"propose_swap agrees with the per-pair reference" ~count:150
    QCheck.int (fun salt ->
      let prng = Prng.create ~seed:(Int64.of_int (1000 + salt)) in
      let sim = Sim.create ~seed:(Int64.of_int salt) () in
      let cluster = Cluster.create sim ~topology:(Topology.gen prng) () in
      let nodes = Array.of_list (Cluster.nodes cluster) in
      let pick a = a.(Prng.int prng (Array.length a)) in
      let boot name =
        Ninja_vmm.Vm.create cluster ~name ~host:(pick nodes) ~vcpus:2
          ~mem_bytes:(Units.gb 8.0)
          ~os_resident_bytes:(Units.gb (0.5 +. Prng.float prng 6.0))
          ()
      in
      let fleet = List.init (2 + Prng.int prng 9) (fun i -> boot (Printf.sprintf "vm%02d" i)) in
      let outsiders = List.init (Prng.int prng 3) (fun i -> boot (Printf.sprintf "out%d" i)) in
      List.iter (fun vm -> if Prng.int prng 8 = 0 then Ninja_vmm.Vm.mark_lost vm) fleet;
      if Prng.int prng 4 = 0 then Cluster.kill_node cluster (pick nodes);
      for _ = 1 to Prng.int prng 6 do
        match Cluster.route_opt cluster ~net:Cluster.Eth ~src:(pick nodes) ~dst:(pick nodes) with
        | Some route -> ignore (Ninja_flownet.Fabric.start (Cluster.fabric cluster) ~route ~bytes:1e15)
        | None -> ()
      done;
      let names =
        Array.of_list
          (List.map Ninja_vmm.Vm.name (fleet @ fleet @ outsiders) @ [ "ghost" ])
      in
      let rows =
        List.init (1 + Prng.int prng 20) (fun _ ->
            let x = pick names in
            let y = if Prng.int prng 10 = 0 then x else pick names in
            (x, y, 10.0 ** (5.0 +. Prng.float prng 4.0)))
      in
      let rows = rows @ List.filter (fun _ -> Prng.int prng 4 = 0) rows in
      let half = List.length rows / 2 in
      let fleet_a, fleet_b = List.partition (fun _ -> Prng.bool prng) fleet in
      let tenant name weight vms traffic = { Service.name; weight; vms; traffic } in
      let tenants =
        [ tenant "t0" 2.0 fleet_a (List.filteri (fun i _ -> i < half) rows);
          tenant "t1" 1.0 fleet_b (List.filteri (fun i _ -> i >= half) rows) ]
      in
      let config = { Service.default_config with Service.auto_swap = Some Service.Declared } in
      let svc = Service.create cluster ~config ~tenants () in
      let expected = oracle_propose cluster (Service.vms svc) rows in
      let proposed = Service.propose_swap svc in
      match expected with
      | None ->
        if proposed then QCheck.Test.fail_reportf "proposed a swap the reference prices as a noop";
        Service.count svc "ctl.swap.noop" = 1.0
      | Some (a, b, gain) ->
        if not proposed then QCheck.Test.fail_reportf "noop where the reference swaps %s<->%s" a b;
        let submit = Printf.sprintf "swap %s<->%s prio=low submit" a b in
        let ends_with line =
          let n = String.length line and k = String.length submit in
          n >= k && String.equal (String.sub line (n - k) k) submit
        in
        if not (List.exists ends_with (Service.log svc)) then
          QCheck.Test.fail_reportf "no %S request submitted:\n%s" submit
            (String.concat "\n" (Service.log svc));
        let got = Service.count svc "ctl.swap.gain" in
        if not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float gain)) then
          QCheck.Test.fail_reportf "gain %.17g, reference %.17g" got gain;
        true)

(* {1 Kept pricing state against a table built from scratch} *)

(* A served run on a random leaf-spine or AGC cluster: skewed tenant
   matrices, open-loop churn, and some of precopy aborts, QMP timeouts,
   failed attaches and a node death, priced by declared or learned
   traffic. At every swap round (the [ctl.swap.noop] or [ctl.swap.gain]
   probe it emits, before simulated time moves) a table built from
   scratch must take the same decision: a no-op, or the same pair at a
   [Float.equal] gain. The rounds' proposals must be those the log
   records. *)
let kept_pricing_prop =
  QCheck.Test.make ~name:"kept swap pricing decides as a table built from scratch" ~count:300
    QCheck.int (fun salt ->
      let prng = Prng.create ~seed:(Int64.add Qsuite.seed (Int64.of_int (5000 + salt))) in
      let sim = Sim.create ~seed:(Int64.of_int salt) () in
      let cluster =
        if Prng.bool prng then Cluster.create sim ~topology:(Topology.gen prng) ()
        else Cluster.create sim ~spec:Spec.agc ()
      in
      let nodes = Array.of_list (Cluster.nodes cluster) in
      let faults =
        List.filter
          (fun _ -> Prng.int prng 3 > 0)
          [ "precopy-abort:p=0.3,count=inf";
            Printf.sprintf "qmp-timeout:p=0.%d,count=inf" (1 + Prng.int prng 4);
            "attach-fail:p=0.1,count=inf";
            Printf.sprintf "node-death@%s:n=%d"
              nodes.(Prng.int prng (Array.length nodes)).Node.name
              (1 + Prng.int prng 4) ]
      in
      List.iter
        (fun text ->
          match Ninja_faults.Injector.parse_spec text with
          | Ok spec -> Ninja_faults.Injector.arm_spec (Cluster.injector cluster) spec
          | Error msg -> failwith msg)
        faults;
      let tenants = List.init (2 + Prng.int prng 2) (fun i -> (Printf.sprintf "t%d" i, 1.0)) in
      let vms_per_tenant = 2 + Prng.int prng 4 in
      let mem_bytes = Units.gb 4.0 in
      if not (Service.fits cluster ~vms:(List.length tenants * vms_per_tenant) ~mem_bytes)
      then QCheck.assume_fail ()
      else begin
        let specs =
          Service.boot_tenants
            ~traffic:
              (Ninja_workloads.Traffic.Skewed
                 { elephants = 2; rate = Ninja_workloads.Traffic.default_rate; factor = 16.0 })
            cluster ~tenants ~vms_per_tenant ~mem_bytes
        in
        let learned = Prng.bool prng in
        let fconfig = Ninja_telemetry.Flowmon.default_config in
        let learned_ref = ref (fun () -> []) in
        let config =
          { Service.default_config with
            Service.max_inflight = 1 + Prng.int prng 3;
            auto_swap = Some (if learned then Service.Learned else Service.Declared);
            learned_traffic = (if learned then Some (fun () -> !learned_ref ()) else None) }
        in
        let svc = Service.create cluster ~config ~tenants:specs () in
        let horizon = 600.0 +. Prng.float prng 1200.0 in
        let fm =
          if not learned then None
          else begin
            let traffic = List.concat_map (fun (ts : Service.tenant_spec) -> ts.traffic) specs in
            let fm = Ninja_telemetry.Flowmon.create ~config:fconfig cluster ~traffic in
            learned_ref := Ninja_experiments.Exp_controlplane.learned_traffic fconfig fm;
            Ninja_telemetry.Flowmon.start fm ~horizon;
            Some fm
          end
        in
        Service.open_loop svc
          ~process:(Ninja_workloads.Arrivals.Poisson { rate = 0.02 +. Prng.float prng 0.2 })
          ~horizon;
        (* Guests at work: now and then one writes part of a spare region
           (its non-zero and dirty bytes grow) or has its dirty bits
           cleared, as a precopy round that then aborted would. *)
        let fleet = Array.of_list (Service.vms svc) in
        let spare =
          Array.map
            (fun vm -> Ninja_vmm.Memory.alloc (Ninja_vmm.Vm.memory vm) ~bytes:(Units.gb 1.0))
            fleet
        in
        Sim.spawn sim ~name:"guests" (fun () ->
            while Time.to_sec_f (Sim.now sim) < horizon do
              Sim.sleep (Time.of_sec_f (20.0 +. Prng.float prng 180.0));
              let i = Prng.int prng (Array.length fleet) in
              let memory = Ninja_vmm.Vm.memory fleet.(i) in
              if Prng.bool prng then Ninja_vmm.Memory.clear_dirty memory
              else
                Ninja_vmm.Memory.write memory spare.(i) ~offset:(Prng.float prng (Units.gb 0.5))
                  ~bytes:(Prng.float prng (Units.gb 0.5))
            done);
        let rounds = ref 0 and proposals = ref [] in
        let decided got =
          incr rounds;
          let want = Service.swap_reference svc in
          let show = function
            | None -> "no-op"
            | Some (a, b, g) -> Printf.sprintf "%s<->%s (gain %.17g)" a b g
          in
          match (got, want) with
          | None, None -> ()
          | Some g, Some (a, b, g') when Float.equal g g' ->
            proposals := Printf.sprintf "%s<->%s" a b :: !proposals
          | _ ->
            QCheck.Test.fail_reportf "round %d at %.1fs: kept pricing %s, from scratch %s"
              !rounds
              (Time.to_sec_f (Sim.now sim))
              (match got with None -> "no-op" | Some g -> Printf.sprintf "gain %.17g" g)
              (show want)
        in
        Probe.with_subscriber (Cluster.probes cluster)
          (fun ev ->
            match ev.Probe.payload with
            | Probe.Stat { name = "ctl.swap.noop"; _ } -> decided None
            | Probe.Stat { name = "ctl.swap.gain"; value; _ } -> decided (Some value)
            | _ -> ())
          (fun () -> Sim.run sim);
        Option.iter Ninja_telemetry.Flowmon.detach fm;
        (* Log lines are "[%10.1f] " and the entry. *)
        let logged =
          List.filter_map
            (fun line ->
              match String.split_on_char ' ' (String.sub line 13 (String.length line - 13)) with
              | "swap" :: "proposal" :: pair :: _ -> Some pair
              | _ -> None)
            (Service.log svc)
        in
        let expected = List.rev !proposals in
        if logged <> expected then
          QCheck.Test.fail_reportf "logged proposals [%s], decided [%s]"
            (String.concat "; " logged) (String.concat "; " expected);
        if !rounds = 0 then QCheck.Test.fail_reportf "no swap round ran";
        true
      end)

(* The policy takes its fabric reader at its first round and releases it
   when the dispatcher quiesces; without auto-swap it takes none. *)
let test_swap_reader_lifecycle () =
  let served auto_swap =
    let sim = Sim.create ~seed:3L () in
    let cluster =
      match
        Topology.v ~tier:Topology.Leaf_spine ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:4
          ~ib_pods:1 ~oversub:4.0 ~mem_gb:32.0 ~seed:3L ()
      with
      | Ok topology -> Cluster.create sim ~topology ()
      | Error e -> Alcotest.fail e
    in
    let fabric = Cluster.fabric cluster in
    let before = Ninja_flownet.Fabric.readers fabric in
    let tenants =
      Service.boot_tenants ~traffic:(Ninja_workloads.Traffic.Ring { rate = 1e6 }) cluster
        ~tenants:[ ("t0", 1.0); ("t1", 1.0) ] ~vms_per_tenant:3 ~mem_bytes:(Units.gb 2.0)
    in
    let config = { Service.default_config with Service.auto_swap } in
    let svc = Service.create cluster ~config ~tenants () in
    Alcotest.(check int) "no reader before the first round" before
      (Ninja_flownet.Fabric.readers fabric);
    let during = ref (-1) in
    Service.inject svc ~after:(Time.sec 5) (fun svc ->
        during := Ninja_flownet.Fabric.readers fabric;
        Service.make svc ~tenant:"t0" ~kind:Request.Fallback ());
    Sim.run sim;
    Alcotest.(check bool) "quiesced" true (Service.quiesced svc);
    (before, !during, Ninja_flownet.Fabric.readers fabric)
  in
  let before, during, after = served (Some Service.Declared) in
  Alcotest.(check int) "auto-swap holds one reader while serving" (before + 1) during;
  Alcotest.(check int) "and releases it when the dispatcher quiesces" before after;
  let before, during, after = served None in
  Alcotest.(check int) "no auto-swap, no reader" before during;
  Alcotest.(check int) "none left" before after

(* {1 Open-loop fuzz under faults} *)

let fault_menu =
  [ [];
    [ "precopy-abort:p=0.3,count=inf" ];
    [ "qmp-timeout:p=0.2,count=inf" ];
    [ "node-death@eth00" ];
    [ "node-death@eth01"; "precopy-stall:p=0.2,count=inf" ];
    [ "agent-crash:n=2" ]
  ]

let test_fuzz_open_loop () =
  let prng = Prng.create ~seed:99L in
  for case = 1 to 30 do
    let seed = Int64.of_int (Prng.int prng 100000) in
    let faults = List.nth fault_menu (Prng.int prng (List.length fault_menu)) in
    let rate = 0.02 +. Prng.float prng 0.2 in
    let config =
      { Service.default_config with max_inflight = 1 + Prng.int prng 3 }
    in
    let h =
      harness
        ~spec:(Spec.make ~ib_nodes:3 ~eth_nodes:3 ())
        ~seed ~faults ~config
        ~tenants:[ ("t0", 3.0); ("t1", 1.0) ]
        ~vms_per_tenant:(1 + Prng.int prng 2) ()
    in
    Service.open_loop h.svc ~process:(Poisson { rate }) ~horizon:400.0;
    Sim.run h.sim;
    Ninja_check.Checker.check_finish h.checker;
    Ninja_check.Checker.detach h.checker;
    let violations = Ninja_check.Checker.violations h.checker in
    if violations <> [] then
      Alcotest.failf "case %d (seed %Ld, faults [%s]): %s" case seed
        (String.concat "; " faults)
        (Format.asprintf "%a" Ninja_check.Checker.pp_violation (List.hd violations));
    match Service.accounting h.svc with
    | Ok () -> ()
    | Error msg ->
      Alcotest.failf "case %d (seed %Ld, faults [%s]): accounting: %s" case seed
        (String.concat "; " faults) msg
  done

(* {1 Experiment: parallel identical to serial} *)

let experiment_csv ctx =
  Ninja_experiments.Exp_controlplane.run ctx
  |> List.map Ninja_metrics.Table.to_csv
  |> String.concat "\n"

let test_experiment_parallel_matches_serial () =
  let serial = experiment_csv (Run_ctx.make ~seed:5L ()) in
  let parallel =
    Pool.with_pool ~size:4 (fun pool -> experiment_csv (Run_ctx.make ~seed:5L ~pool ()))
  in
  Alcotest.(check string) "-j 4 is byte-identical to serial" serial parallel

(* {1 CLI exit codes} *)

let ninja_sim args =
  (* `dune runtest` runs in _build/default/test (the binary is a declared
     dep one directory up); `dune exec` runs from the project root. *)
  let binary =
    List.find Sys.file_exists
      [ "../bin/ninja_sim.exe"; "_build/default/bin/ninja_sim.exe"; "bin/ninja_sim.exe" ]
  in
  Sys.command (Filename.quote_command binary args ^ " > /dev/null")

let test_cli_exit_codes () =
  Alcotest.(check int) "clean serve exits 0" 0
    (ninja_sim
       [ "serve"; "--duration"; "300"; "--rate"; "0.1"; "--seed"; "1" ]);
  Alcotest.(check int) "SLO breach exits 3" 3
    (ninja_sim
       [ "serve"; "--duration"; "300"; "--rate"; "0.1"; "--seed"; "1"; "--slo"; "0.0001" ]);
  Alcotest.(check int) "planted protocol bug exits 1" 1
    (ninja_sim
       [ "check"; "-n"; "2"; "--no-shrink"; "--plant"; "skip-fence"; "--out";
         Filename.concat (Filename.get_temp_dir_name ()) "ctl-repros" ]);
  Alcotest.(check int) "bad flags exit 1" 1
    (ninja_sim [ "serve"; "--duration"; "0" ])

let () =
  (* Exit-code tests spawn the CLI; silence its stdout to keep the test
     output readable. *)
  Alcotest.run "ninja_controlplane"
    [
      ( "arrivals",
        [
          Alcotest.test_case "deterministic" `Quick test_arrivals_deterministic;
          Alcotest.test_case "shape and bounds" `Quick test_arrivals_shape;
          Alcotest.test_case "validation" `Quick test_arrivals_validation;
        ] );
      ( "fair-queue",
        [
          Alcotest.test_case "order and weights" `Quick test_fair_queue_order;
          Alcotest.test_case "idle tenant rejoins level" `Quick test_fair_queue_idle_rejoin;
        ] );
      ("locks", [ Alcotest.test_case "claims" `Quick test_locks ]);
      ( "service",
        [
          Alcotest.test_case "smoke: placement requests complete" `Quick test_service_smoke;
          Alcotest.test_case "admission control" `Quick test_service_admission;
          Alcotest.test_case "same seed, same run" `Quick test_service_deterministic;
          Alcotest.test_case "node death re-queues, not strands" `Quick
            test_requeue_on_node_death;
          Alcotest.test_case "reroute counts its batch's reservations" `Quick
            test_reroute_counts_reservations;
          Alcotest.test_case "attempt budget exhausts to Failed" `Quick
            test_failed_after_attempts;
          Alcotest.test_case "expired deadline dropped" `Quick test_deadline_drop;
        ] );
      ( "swap",
        [
          Alcotest.test_case "swap request exchanges hosts" `Quick
            test_swap_request_exchanges_hosts;
          Alcotest.test_case "auto-swap converges" `Quick test_auto_swap_converges;
          Alcotest.test_case "swap reader taken and released" `Quick test_swap_reader_lifecycle;
        ]
        @ Qsuite.tests [ swap_pricing_prop; kept_pricing_prop ] );
      ("fuzz", [ Alcotest.test_case "open loop under faults" `Slow test_fuzz_open_loop ]);
      ( "experiment",
        [
          Alcotest.test_case "parallel matches serial" `Slow
            test_experiment_parallel_matches_serial;
        ] );
      ("cli", [ Alcotest.test_case "exit codes" `Slow test_cli_exit_codes ]);
    ]
