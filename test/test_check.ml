(* The scenario fuzzer and invariant checker, tested three ways: the
   scenario grammar round-trips; the checker's individual invariants fire
   on synthetic probe streams; and end-to-end, a small campaign is green
   while each planted protocol bug is caught and its emitted repro file
   reproduces the failure deterministically.

   Seeded from NINJA_TEST_SEED (default 1, through Qsuite) like the fault
   suite, so the CI seed matrix covers this suite too, and two runs at one
   seed test the same cases. *)

open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_check

let env_seed = Qsuite.seed

let salted salt = Int64.add env_seed (Int64.of_int salt)

(* ------------------------------------------------------------------ *)
(* Scenario grammar *)

let scenario_roundtrip_prop =
  QCheck.Test.make ~name:"scenario text form round-trips" ~count:200 QCheck.int
    (fun salt ->
      let prng = Prng.create ~seed:(salted salt) in
      let plants = None :: List.map Option.some Scenario.plants in
      let plant = List.nth plants (Int.abs (salt mod List.length plants)) in
      let sc = { (Scenario.gen prng) with Scenario.plant } in
      match Scenario.of_string (Scenario.to_string sc) with
      | Ok sc' -> sc' = sc
      | Error e -> QCheck.Test.fail_reportf "did not parse back: %s" e)

let generated_scenarios_validate_prop =
  QCheck.Test.make ~name:"generated scenarios validate; shrinks stay valid" ~count:200
    QCheck.int (fun salt ->
      let prng = Prng.create ~seed:(salted salt) in
      let sc = Scenario.gen prng in
      (match Scenario.validate sc with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "generated scenario invalid: %s" e);
      List.for_all
        (fun c ->
          match Scenario.validate c with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "shrink candidate invalid: %s" e)
        (Scenario.shrink sc))

let test_scenario_parse_errors () =
  List.iter
    (fun text ->
      match Scenario.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected %S to be rejected" text)
    [
      "frobnicate=1";
      "vms=banana";
      "trigger=warp";
      "trigger=consolidate:0";
      "strategy=psychic";
      "fault=frobnicate";
      "vms=3\nib=2";
      (* vms > ib *)
      "until=3\ntrigger_at=5";
      "uplink_gbps=-2";
      "traffic=bogus";
      "traffic=skewed:factor=0.5";
      "plant=skip-fences";
    ];
  (* A misspelled plant is a parse error naming the valid plants, not a
     crash once the simulation reaches the plant. *)
  Alcotest.(check (result reject string))
    "misspelled plant"
    (Error "unknown plant \"skip-fences\" (expected skip-rollback or skip-fence)")
    (Result.map ignore (Scenario.of_string "plant=skip-fences"))

let test_scenario_parse_comments_and_defaults () =
  let text = "# a comment\n\nseed=9\n  vms=2  \nib=2\neth=3\nfault=agent-crash@vm0\n" in
  match Scenario.of_string text with
  | Error e -> Alcotest.fail e
  | Ok sc ->
    Alcotest.(check int64) "seed" 9L sc.Scenario.seed;
    Alcotest.(check int) "vms" 2 sc.Scenario.vms;
    Alcotest.(check (list string)) "faults" [ "agent-crash@vm0" ] sc.Scenario.faults;
    Alcotest.(check int) "procs defaulted" 1 sc.Scenario.procs

let test_generate_deterministic () =
  let a = Fuzz.generate ~seed:env_seed ~n:5 in
  let b = Fuzz.generate ~seed:env_seed ~n:5 in
  Alcotest.(check bool) "same stream" true (a = b);
  Alcotest.(check int) "count" 5 (List.length a);
  let c = Fuzz.generate ~seed:(Int64.add env_seed 1L) ~n:5 in
  Alcotest.(check bool) "different seed, different stream" true (a <> c)

(* ------------------------------------------------------------------ *)
(* Strategy properties *)

module Plan = Ninja_planner.Plan
module Solver = Ninja_planner.Solver
module Estimator = Ninja_planner.Estimator
module Executor = Ninja_planner.Executor
module Fabric = Ninja_flownet.Fabric
module Traffic = Ninja_workloads.Traffic

(* Kahn layering of the solved plan: the waves the executor could run
   concurrently at the earliest. Two link-sharing steps only share a
   layer if the solver judged them safe to overlap. *)
let layers plan =
  let finished = Hashtbl.create 16 in
  let rec go acc remaining =
    if remaining = [] then List.rev acc
    else begin
      let ready, rest =
        List.partition
          (fun s ->
            List.for_all
              (fun (d : Plan.step) -> Hashtbl.mem finished d.Plan.id)
              (Plan.deps_of plan s))
          remaining
      in
      if ready = [] then QCheck.Test.fail_report "no ready step: plan is cyclic";
      List.iter (fun (s : Plan.step) -> Hashtbl.add finished s.Plan.id ()) ready;
      go (ready :: acc) rest
    end
  in
  go [] (Plan.steps plan)

(* Every strategy — present and future — must honour the
   planner's safety contract on arbitrary evacuation mixes, under both
   migration modes: acyclic output, no concurrent layer oversubscribing
   a fabric link, no VM silently re-aimed across the IB/Ethernet
   boundary (the PR-4 reroute bug family, which the swap solver could
   reintroduce wholesale), and no postcopy step inside a swap-staged
   cycle — a staged hop commits onto a scratch node, so the executor
   must demote it to precopy whatever mode the caller asked for. *)
let strategies_safe_prop =
  QCheck.Test.make
    ~name:"registered strategies x modes: acyclic, capacity-safe, staged hops precopy"
    ~count:60 QCheck.int (fun salt ->
      let prng = Prng.create ~seed:(salted (1000 + salt)) in
      let n = 2 + Prng.int prng 3 in
      let sim = Sim.create ~seed:(salted salt) () in
      let cluster =
        Cluster.create sim ~spec:(Spec.make ~ib_nodes:(2 * n) ~eth_nodes:n ()) ()
      in
      Cluster.set_inter_rack cluster ~rack_a:0 ~rack_b:1
        ~capacity:(Units.gbps (5.0 *. float_of_int (1 + Prng.int prng 4)))
        ~latency:(Time.us 50);
      let vms =
        List.init n (fun i ->
            Vm.create cluster
              ~name:(Printf.sprintf "vm%d" i)
              ~host:(Cluster.find_node cluster (Printf.sprintf "ib%02d" i))
              ~vcpus:2
              ~mem_bytes:(Units.gb (2.0 +. Prng.float prng 4.0))
              ())
      in
      (* Distinct free destinations, randomly IB or Ethernet, so the
         fabric-class claim is non-trivial for the swap strategy. *)
      let assignment =
        List.mapi
          (fun i vm ->
            let name =
              if Prng.bool prng then Printf.sprintf "ib%02d" (n + i)
              else Printf.sprintf "eth%02d" i
            in
            (vm, Cluster.find_node cluster name))
          vms
      in
      let dst_of vm = List.assq vm assignment in
      let traffic =
        Traffic.matrix prng (Traffic.gen prng) ~vms:(List.map Vm.name vms)
      in
      List.for_all
        (fun strategy ->
          let plan = Plan.of_assignment cluster ~vms ~dst_of () in
          let solved = Solver.solve strategy cluster ~traffic plan in
          if not (Plan.is_acyclic solved) then
            QCheck.Test.fail_reportf "%s: cyclic plan" (Solver.name strategy);
          List.iter
            (fun layer ->
              let usage = Hashtbl.create 8 in
              List.iter
                (fun step ->
                  let rate = (Estimator.estimate cluster step).Estimator.rate in
                  List.iter
                    (fun link ->
                      let id = Fabric.link_id link in
                      let prev =
                        Option.value (Hashtbl.find_opt usage id) ~default:(link, 0.0)
                      in
                      Hashtbl.replace usage id (link, snd prev +. rate))
                    (Estimator.route cluster step))
                layer;
              Hashtbl.iter
                (fun _ (link, used) ->
                  if used > Fabric.link_capacity link +. 1e-3 then
                    QCheck.Test.fail_reportf "%s: link %s oversubscribed (%.4g > %.4g)"
                      (Solver.name strategy) (Fabric.link_name link) used
                      (Fabric.link_capacity link))
                usage)
            (layers solved);
          List.iter
            (fun (s : Plan.step) ->
              match s.Plan.kind with
              | Plan.Direct | Plan.Stage_in ->
                if Node.has_ib s.Plan.dst <> Node.has_ib (dst_of s.Plan.vm) then
                  QCheck.Test.fail_reportf "%s: %s crossed the fabric-class boundary"
                    (Solver.name strategy) (Vm.name s.Plan.vm)
              | Plan.Stage_out -> ())
            (Plan.steps solved);
          List.iter
            (fun mode ->
              List.iter
                (fun (s : Plan.step) ->
                  let effective = Executor.step_mode mode s in
                  match s.Plan.kind with
                  | Plan.Stage_out | Plan.Stage_in ->
                    if effective <> Migration.Precopy then
                      QCheck.Test.fail_reportf
                        "%s: staged hop of %s would run %s under requested %s"
                        (Solver.name strategy) (Vm.name s.Plan.vm)
                        (Migration.mode_name effective) (Migration.mode_name mode)
                  | Plan.Direct ->
                    if effective <> mode then
                      QCheck.Test.fail_reportf
                        "%s: direct step of %s ignored requested mode %s"
                        (Solver.name strategy) (Vm.name s.Plan.vm)
                        (Migration.mode_name mode))
                (Plan.steps solved))
            [ Migration.Precopy; Migration.Postcopy ];
          true)
        (Solver.all ()))

(* The evacuation mixes above rarely stage; pin the demotion on a plan
   that provably does — a two-VM destination swap with one free staging
   node yields a Stage_out/Stage_in chain, every hop of which must run
   precopy even when the request is postcopy. *)
let test_staged_swap_demotes_postcopy () =
  let sim = Sim.create ~seed:env_seed () in
  let cluster = Cluster.create sim ~spec:(Spec.make ~ib_nodes:3 ~eth_nodes:0 ()) () in
  let host i = Cluster.find_node cluster (Printf.sprintf "ib%02d" i) in
  let a = Vm.create cluster ~name:"vma" ~host:(host 0) ~vcpus:2 ~mem_bytes:(Units.gb 2.0) () in
  let b = Vm.create cluster ~name:"vmb" ~host:(host 1) ~vcpus:2 ~mem_bytes:(Units.gb 2.0) () in
  let dst_of vm = if vm == a then host 1 else host 0 in
  let plan =
    Plan.of_assignment cluster ~vms:[ a; b ] ~dst_of ~staging:[ host 2 ] ()
  in
  let staged =
    List.filter (fun (s : Plan.step) -> s.Plan.kind <> Plan.Direct) (Plan.steps plan)
  in
  Alcotest.(check bool) "swap produced staged hops" true (staged <> []);
  List.iter
    (fun (s : Plan.step) ->
      Alcotest.(check string)
        (Printf.sprintf "step %d runs precopy" s.Plan.id)
        "precopy"
        (Migration.mode_name (Executor.step_mode Migration.Postcopy s)))
    staged;
  List.iter
    (fun (s : Plan.step) ->
      if s.Plan.kind = Plan.Direct then
        Alcotest.(check string)
          (Printf.sprintf "direct step %d honours postcopy" s.Plan.id)
          "postcopy"
          (Migration.mode_name (Executor.step_mode Migration.Postcopy s)))
    (Plan.steps plan)

(* ------------------------------------------------------------------ *)
(* Checker invariants on synthetic probe streams *)

let fresh_cluster () =
  let sim = Sim.create ~seed:env_seed () in
  let cluster = Cluster.create sim ~spec:(Spec.make ~ib_nodes:2 ~eth_nodes:2 ()) () in
  (sim, cluster)

let violation_names checker =
  List.map (fun v -> v.Checker.invariant) (Checker.violations checker)

let test_checker_fence_pairing () =
  let _sim, cluster = fresh_cluster () in
  let checker = Checker.install cluster ~vms:[] in
  let probes = Cluster.probes cluster in
  Probe.emit probes (Probe.Fence_release { id = ""; vms = [] });
  Probe.emit probes (Probe.Fence_enter { id = ""; vms = [ "vm0" ] });
  Probe.emit probes (Probe.Fence_enter { id = ""; vms = [ "vm0" ] });
  Checker.check_finish checker;
  Alcotest.(check (list string)) "release w/o enter, double enter, held at end"
    [ "fence-pairing"; "fence-pairing"; "fence-pairing" ]
    (violation_names checker)

let test_checker_plan_and_permits () =
  let _sim, cluster = fresh_cluster () in
  let checker = Checker.install cluster ~vms:[] in
  let probes = Cluster.probes cluster in
  Probe.emit probes
    (Probe.Plan_built { steps = 3; deps = 3; acyclic = false; staged = 0; overcommits = 0 });
  Probe.emit probes
    (Probe.Executor_report
       { steps = 3; failures = 0; retries = 0; rerouted = 0; permits_leaked = 2 });
  Alcotest.(check (list string)) "cyclic plan and leaked permits flagged"
    [ "plan-acyclic"; "permit-leak" ]
    (violation_names checker);
  Alcotest.(check int) "events counted" 2 (Checker.events_seen checker)

let test_checker_attach_balance_and_fence_gate () =
  let _sim, cluster = fresh_cluster () in
  let vm =
    Vm.create cluster ~name:"vm0"
      ~host:(Cluster.find_node cluster "ib00")
      ~vcpus:2 ~mem_bytes:(Units.gb 4.0) ()
  in
  let checker = Checker.install cluster ~vms:[ vm ] in
  let probes = Cluster.probes cluster in
  (* Unwatched subjects are ignored entirely. *)
  Probe.emit probes (Probe.Device_del { vm = "other"; tag = "x" });
  (* virtio0 was attached at create time, before install: it is part of
     the baseline, so detaching it once is balanced... *)
  Probe.emit probes (Probe.Device_del { vm = "vm0"; tag = "virtio0" });
  (* ...but a second detach is not, and neither is a duplicate attach. *)
  Probe.emit probes (Probe.Device_del { vm = "vm0"; tag = "virtio0" });
  Probe.emit probes (Probe.Device_add { vm = "vm0"; tag = "vf0"; bypass = true });
  Probe.emit probes (Probe.Device_add { vm = "vm0"; tag = "vf0"; bypass = true });
  (* A migration outside any fence, with the bypass device attached. *)
  Probe.emit probes
    (Probe.Vm_migrated { vm = "vm0"; src = "ib00"; dst = "eth00"; bypass = true });
  Alcotest.(check (list string)) "unbalanced hotplug and unfenced bypass migration"
    [ "attach-balance"; "attach-balance"; "fence-before-migrate"; "bypass-migrate" ]
    (violation_names checker)

let test_checker_excuses_giveup () =
  let _sim, cluster = fresh_cluster () in
  let vm =
    Vm.create cluster ~name:"vm0"
      ~host:(Cluster.find_node cluster "ib00")
      ~vcpus:2 ~mem_bytes:(Units.gb 4.0) ()
  in
  let checker = Checker.install cluster ~vms:[ vm ] in
  let probes = Cluster.probes cluster in
  let start = Probe.Migrate_start { batch = ""; origins = [ ("vm0", "eth01") ] } in
  let rollback =
    Probe.Migrate_rollback { batch = ""; origins = []; reason = "test"; lost = [] }
  in
  Probe.emit probes start;
  (* vm0 is on ib00, not its claimed origin eth01 — but the rollback gave
     up on it, which excuses the mismatch. *)
  Probe.emit probes (Probe.Migrate_giveup { vm = "vm0"; phase = "rollback-return" });
  Probe.emit probes rollback;
  Alcotest.(check (list string)) "giveup excuses the restore check" []
    (violation_names checker);
  Alcotest.(check bool) "vm0 is excused" true (Checker.excused checker "vm0");
  (* A fresh migration clears the excuse; now the mismatch counts. *)
  Probe.emit probes start;
  Probe.emit probes rollback;
  Alcotest.(check (list string)) "fresh transaction re-arms the check"
    [ "rollback-restore" ] (violation_names checker)

(* Each checker holds its own reader of the fabric's change feed, so two
   checkers on one cluster each see every event and every changed link,
   and detaching one releases only its reader. *)
let test_checker_two_per_cluster () =
  let _sim, cluster = fresh_cluster () in
  let fabric = Cluster.fabric cluster in
  let plan =
    Probe.Plan_built { steps = 1; deps = 0; acyclic = true; staged = 0; overcommits = 0 }
  in
  let first = Checker.install cluster ~vms:[] in
  Checker.with_checker cluster ~vms:[] (fun second ->
      Alcotest.(check int) "a reader each" 2 (Fabric.readers fabric);
      Probe.emit (Cluster.probes cluster) plan;
      Checker.detach first;
      Alcotest.(check int) "detach releases one reader" 1 (Fabric.readers fabric);
      Probe.emit (Cluster.probes cluster) plan;
      Alcotest.(check int) "the detached checker saw one event" 1 (Checker.events_seen first);
      Alcotest.(check int) "the other saw both" 2 (Checker.events_seen second);
      Alcotest.(check (list string)) "both on a clean fabric" []
        (violation_names first @ violation_names second));
  Alcotest.(check int) "no reader left" 0 (Fabric.readers fabric)

(* ------------------------------------------------------------------ *)
(* Probe bus basics (the engine hook everything above rides on) *)

(* Synthetic events for the bus tests: a node death named [name]. *)
let death name = Probe.Node_death { node = name }

let node_of (e : Probe.event) =
  match e.Probe.payload with Probe.Node_death { node } -> node | _ -> ""

let test_probe_idle_is_free () =
  let sim = Sim.create ~seed:env_seed () in
  let probes = Probe.create sim in
  Probe.emit probes (death "y");
  Alcotest.(check bool) "inactive" false (Probe.active probes);
  Alcotest.(check int) "nothing delivered" 0 (Probe.emitted probes);
  let seen = ref [] in
  ignore (Probe.attach probes (fun e -> seen := ("a", node_of e) :: !seen));
  ignore (Probe.attach probes (fun e -> seen := ("b", node_of e) :: !seen));
  Probe.emit probes (death "z");
  Alcotest.(check bool) "active" true (Probe.active probes);
  Alcotest.(check int) "one delivery" 1 (Probe.emitted probes);
  Alcotest.(check (list (pair string string))) "subscription order"
    [ ("a", "z"); ("b", "z") ]
    (List.rev !seen)

let test_probe_subscription_scoping () =
  let sim = Sim.create ~seed:env_seed () in
  let probes = Probe.create sim in
  let seen = ref 0 in
  (* attach/detach bracket exactly the events in between; detach is
     idempotent and returns the bus to zero-cost idle. *)
  let sub = Probe.attach probes (fun _ -> incr seen) in
  Probe.emit probes (death "a");
  Probe.detach probes sub;
  Probe.detach probes sub;
  Probe.emit probes (death "b");
  Alcotest.(check int) "only the bracketed event" 1 !seen;
  Alcotest.(check bool) "idle again" false (Probe.active probes);
  (* with_subscriber detaches even when the body raises. *)
  (try
     Probe.with_subscriber probes
       (fun _ -> incr seen)
       (fun () ->
         Probe.emit probes (death "c");
         failwith "boom")
   with Failure _ -> ());
  Probe.emit probes (death "d");
  Alcotest.(check int) "detached on exception" 2 !seen;
  Alcotest.(check bool) "idle after the body" false (Probe.active probes)

(* The text form is a contract: [--trace] timelines and trace-event args
   are diffed across versions. Each expected line is what the bus printed
   for the same event before it was typed; fences and migration
   transactions appear once per emitter (the SymVirt controller or
   [Ninja.migrate], and the control plane). *)
let wire_lines =
  let vms8 = List.init 8 (Printf.sprintf "vm%d") in
  let span_note ~name ~cat ~proc ~thread ~start args =
    Probe.Span_note { name; cat; proc; thread; start = Time.ns start; args }
  in
  [
    ( 30.07, Probe.Fence_enter { id = ""; vms = vms8 },
      "[30.07s] fence/enter vms=vm0,vm1,vm2,vm3,vm4,vm5,vm6,vm7 count=8" );
    ( 22.17, Probe.Fence_enter { id = "batch-0"; vms = [ "t2-vm0"; "t2-vm1" ] },
      "[22.17s] fence/enter vms=t2-vm0,t2-vm1 count=2 id=batch-0" );
    ( 38.61, Probe.Fence_release { id = ""; vms = vms8 },
      "[38.61s] fence/release vms=vm0,vm1,vm2,vm3,vm4,vm5,vm6,vm7 count=8" );
    ( 7.79, Probe.Fence_release { id = "batch-0"; vms = [ "t2-vm1" ] },
      "[7.79s] fence/release vms=t2-vm1 count=1 id=batch-0" );
    ( 0.0, Probe.Device_add { vm = "vm0"; tag = "vf0"; bypass = true },
      "[0ns] vm/device-add vm0 tag=vf0 bypass=true" );
    ( 38.61, Probe.Device_del { vm = "vm0"; tag = "vf0" }, "[38.61s] vm/device-del vm0 tag=vf0" );
    ( 68.14, Probe.Vm_migrated { vm = "vm7"; src = "ib07"; dst = "ib15"; bypass = false },
      "[68.14s] vm/migrated vm7 src=ib07 dst=ib15 bypass=false" );
    ( 12.79,
      Probe.Qmp { vm = "vm0"; command = "migrate"; args = [ ("dst", "ib00"); ("mode", "precopy") ] },
      "[12.79s] qmp/migrate vm0 dst=ib00 mode=precopy" );
    ( 22.17, Probe.Plan_built { steps = 2; deps = 0; acyclic = true; staged = 0; overcommits = 0 },
      "[22.17s] plan/built steps=2 deps=0 acyclic=true staged=0 overcommits=0" );
    ( 30.61, Probe.Plan_swap { swaps = 1; passes = 2; movers = 2 },
      "[30.61s] plan/swap swaps=1 passes=2 movers=2" );
    ( 22.17,
      Probe.Plan_cost
        { strategy = "grouped"; model = "migration-time"; before = 24.93014406; after = 24.93014406 },
      "[22.17s] plan/cost strategy=grouped model=migration-time before=24.93014406 \
       after=24.93014406" );
    ( 34.65,
      Probe.Executor_report
        { steps = 2; failures = 0; retries = 0; rerouted = 0; permits_leaked = 0 },
      "[34.65s] executor/report steps=2 failures=0 retries=0 rerouted=0 permits-leaked=0" );
    ( 30.0,
      Probe.Migrate_start
        { batch = ""; origins = List.init 8 (fun i -> (Printf.sprintf "vm%d" i, Printf.sprintf "ib%02d" i)) },
      "[30.00s] migrate/start vm0=ib00 vm1=ib01 vm2=ib02 vm3=ib03 vm4=ib04 vm5=ib05 vm6=ib06 \
       vm7=ib07" );
    ( 22.17,
      Probe.Migrate_start
        { batch = "batch-0"; origins = [ ("t2-vm0", "ib04"); ("t2-vm1", "ib05") ] },
      "[22.17s] migrate/start batch-0 t2-vm0=ib04 t2-vm1=ib05 batch=batch-0" );
    (71.66, Probe.Migrate_complete { batch = "" }, "[71.66s] migrate/complete");
    ( 50.54, Probe.Migrate_complete { batch = "batch-0" },
      "[50.54s] migrate/complete batch-0 batch=batch-0" );
    ( 97.54,
      Probe.Migrate_rollback
        {
          batch = "";
          origins = [];
          reason =
            "migration: vm4: vm4: source ib04 died mid-postcopy (4179099648 bytes \
             unrecoverable)";
          lost = [ "vm4" ];
        },
      "[97.54s] migrate/rollback reason=migration: vm4: vm4: source ib04 died mid-postcopy \
       (4179099648 bytes unrecoverable) lost=vm4" );
    ( 24.72,
      Probe.Migrate_rollback
        {
          batch = "batch-0";
          origins = [ ("t1-vm0", "ib02"); ("t1-vm1", "ib03") ];
          reason = "";
          lost = [];
        },
      "[24.72s] migrate/rollback batch-0 t1-vm0=ib02 t1-vm1=ib03 batch=batch-0" );
    ( 32.05, Probe.Migrate_giveup { vm = "t0-vm0"; phase = "" },
      "[32.05s] migrate/giveup t0-vm0" );
    ( 41.5, Probe.Migrate_giveup { vm = "vm1"; phase = "rollback-return" },
      "[41.50s] migrate/giveup vm1 phase=rollback-return" );
    ( 48.56,
      Probe.Migration_pull
        { vm = "vm1"; bytes = 268435456.0; fresh_pages = 4096; dup_pages = 0;
          remaining = 3910664192.0 },
      "[48.56s] migration/pull vm1 bytes=268435456 fresh_pages=4096 dup_pages=0 \
       remaining=3910664192" );
    ( 47.92,
      Probe.Migration_lost { vm = "vm4"; src = "ib04"; dst = "ib12"; missing = 4179099648.0 },
      "[47.92s] migration/lost vm4 src=ib04 dst=ib12 missing=4179099648" );
    ( 7.65,
      Probe.Migration_done
        { vm = "vm0"; src = "ib00"; dst = "ib01"; mode = "postcopy"; bytes = 2568486912.0;
          rounds = 1; downtime = Time.ns 639132038 },
      "[7.65s] migration/done vm0 src=ib00 dst=ib01 mode=postcopy bytes=2568486912 rounds=1 \
       downtime_ns=639132038" );
    ( 3.56, Probe.Stat { name = "ctl.requests.submitted"; kind = Probe.Counter; value = 1.0 },
      "[3.56s] ctl/stat ctl.requests.submitted kind=counter value=1" );
    ( 13.13,
      Probe.Stat { name = "plan.cost.before"; kind = Probe.Gauge; value = 107.12651873599999 },
      "[13.13s] ctl/stat plan.cost.before kind=gauge value=107.12651873599999" );
    ( 0.91833, Probe.Stat { name = "ctl.queue.depth"; kind = Probe.Histogram; value = 1.0 },
      "[918.33ms] ctl/stat ctl.queue.depth kind=histogram value=1" );
    ( 50.54,
      Probe.Request_done
        { tenant = "t0"; outcome = "completed"; kind = "fallback"; missed = false;
          completed = true; latency = 24.970144059999999 },
      "[50.54s] ctl/request-done t0 outcome=completed kind=fallback missed=false \
       latency=24.970144059999999" );
    ( 9.98, Probe.Fault { point = "node-death"; site = "ib03"; firing = 1 },
      "[9.98s] fault/node-death ib03 firing=1" );
    (47.92, Probe.Node_death { node = "ib04" }, "[47.92s] node/death ib04");
    ( 13.13, Probe.Trigger { trigger = "consolidate(2/host)" },
      "[13.13s] scheduler/trigger consolidate(2/host)" );
    ( 22.98,
      Probe.Span_begin
        { name = "step-0"; cat = "executor"; proc = "ib00"; thread = "vm0";
          args = [ ("dst", "eth00"); ("attempt", "1") ] },
      "[22.98s] span/begin step-0 cat=executor proc=ib00 tid=vm0 dst=eth00 attempt=1" );
    ( 50.54,
      Probe.Span_end
        { name = "execute"; proc = "controlplane"; thread = "req-000";
          args = [ ("outcome", "done") ] },
      "[50.54s] span/end execute cat= proc=controlplane tid=req-000 outcome=done" );
    ( 25.57,
      span_note ~name:"queued" ~cat:"ctl" ~proc:"controlplane" ~thread:"req-000"
        ~start:25567331877
        [ ("tenant", "t0"); ("kind", "fallback") ],
      "[25.57s] span/note queued start=25567331877 cat=ctl proc=controlplane tid=req-000 \
       tenant=t0 kind=fallback" );
  ]

let test_probe_wire_format () =
  List.iter
    (fun (sec, payload, expected) ->
      let e = { Probe.at = Time.of_sec_f sec; topic = Probe.topic payload; payload } in
      Alcotest.(check string) expected expected (Format.asprintf "%a" Probe.pp e))
    wire_lines

(* ------------------------------------------------------------------ *)
(* End-to-end: green campaign, planted bugs, replayable repros *)

let small_ctx () = Run_ctx.make ~seed:env_seed ()

let test_campaign_green () =
  let summary = Fuzz.campaign (small_ctx ()) ~n:8 ~shrink:false () in
  (match summary.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "expected a green campaign, got: %s"
      (Format.asprintf "%a" Runner.pp_result
         (Option.value f.Fuzz.shrunk ~default:f.Fuzz.result)));
  Alcotest.(check int) "all passed" 8 summary.Fuzz.passed;
  Alcotest.(check bool) "probes observed" true (summary.Fuzz.events > 0)

let test_campaign_parallel_matches_serial () =
  let serial = Fuzz.campaign (small_ctx ()) ~n:6 ~shrink:false () in
  Pool.with_pool ~size:3 (fun pool ->
      let ctx = Run_ctx.make ~seed:env_seed ~pool () in
      let parallel = Fuzz.campaign ctx ~n:6 ~shrink:false () in
      Alcotest.(check bool) "identical summaries" true (serial = parallel))

let test_runner_deterministic () =
  let prng = Prng.create ~seed:env_seed in
  let sc = Scenario.gen prng in
  let a = Runner.run sc and b = Runner.run sc in
  Alcotest.(check bool) "same outcome" true (a = b)

let violated_invariants (r : Runner.result) =
  match r.Runner.outcome with
  | Runner.Violated vs -> List.map (fun v -> v.Checker.invariant) vs
  | _ -> []

let test_plant_skip_fence_caught () =
  let summary =
    Fuzz.campaign (small_ctx ()) ~n:2 ~plant:Scenario.Skip_fence ~shrink:false ()
  in
  Alcotest.(check int) "every scenario fails" 2 (List.length summary.Fuzz.failures);
  List.iter
    (fun f ->
      Alcotest.(check bool) "fence-before-migrate flagged" true
        (List.mem "fence-before-migrate" (violated_invariants f.Fuzz.result)))
    summary.Fuzz.failures

let test_plant_skip_rollback_caught_and_replays () =
  let summary =
    Fuzz.campaign (small_ctx ()) ~n:1 ~plant:Scenario.Skip_rollback ~shrink:true ()
  in
  match summary.Fuzz.failures with
  | [ f ] ->
    Alcotest.(check bool) "rollback-restore flagged" true
      (List.mem "rollback-restore" (violated_invariants f.Fuzz.result));
    (* The emitted repro file reproduces the failure deterministically. *)
    let repro = Fuzz.repro_of f in
    (match Scenario.of_string repro with
    | Error e -> Alcotest.failf "repro file does not parse: %s" e
    | Ok sc ->
      let r = Runner.run sc in
      Alcotest.(check bool) "replay fails again" true (Runner.failed r);
      Alcotest.(check bool) "replay finds the same invariant" true
        (List.mem "rollback-restore" (violated_invariants r)
        || List.mem "fence-before-migrate" (violated_invariants r)))
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs)

let test_shrink_result_minimises () =
  let prng = Prng.create ~seed:env_seed in
  let sc = { (Scenario.gen prng) with Scenario.plant = Some Scenario.Skip_fence } in
  let r = Runner.run sc in
  Alcotest.(check bool) "planted run fails" true (Runner.failed r);
  match Fuzz.shrink_result ~budget:40 r with
  | None -> () (* already minimal *)
  | Some smaller ->
    Alcotest.(check bool) "shrunk run still fails" true (Runner.failed smaller);
    Alcotest.(check bool) "plant preserved" true
      (smaller.Runner.scenario.Scenario.plant = Some Scenario.Skip_fence)

(* Regressions for bugs the fuzzer actually found, pinned as the repro
   files it emitted. *)

let run_repro text =
  match Scenario.of_string text with
  | Error e -> Alcotest.failf "repro does not parse: %s" e
  | Ok sc ->
    let r = Runner.run sc in
    if Runner.failed r then
      Alcotest.failf "repro fails: %s" (Format.asprintf "%a" Runner.pp_result r)

let collective_exit_repro =
  "seed=-7474594204390484452\n\
   ib=5\n\
   eth=3\n\
   vms=3\n\
   procs=1\n\
   mem_gb=6.2994671907966824\n\
   compute=0.28298897206788182\n\
   msg_bytes=139048870.1486803\n\
   until=66.469660177778223\n\
   strategy=grouped\n\
   trigger=consolidate:2\n\
   trigger_at=8.5663234931688166\n"

let reroute_overcommit_repro =
  "seed=1204786352294408077\n\
   ib=6\n\
   eth=6\n\
   vms=4\n\
   procs=1\n\
   mem_gb=13.24583538962561\n\
   compute=0.1\n\
   msg_bytes=1000000\n\
   until=40\n\
   strategy=grouped\n\
   trigger=consolidate:2\n\
   trigger_at=3.7191656196105867\n\
   fault=node-death@eth01:n=1\n"

let reroute_cross_fabric_repro =
  "seed=4156674000378942360\n\
   ib=2\n\
   eth=3\n\
   vms=2\n\
   procs=1\n\
   mem_gb=4\n\
   compute=0.10000000000000001\n\
   msg_bytes=1000000\n\
   until=40\n\
   strategy=sequential\n\
   trigger=drain\n\
   trigger_at=8.6213324926064843\n\
   fault=node-death@eth00:n=1\n"

(* The same scenario with every migration run postcopy instead. The
   three PR-4 repros stress exactly the paths whose failure semantics
   changed with postcopy — consolidation under contention skew, reroute
   after a destination death, cross-fabric reroute — so each must also
   hold when switchovers commit early and a displaced VM may no longer
   be rerouted (the reroute path refuses a VM whose switchover already
   committed rather than splitting its memory across hosts). *)
let postcopy_variant text = text ^ "mode=postcopy\n"

let test_regression_collective_exit_race () =
  (* Found by `check -n 1000 --seed 1337`: ranks decided the workload's
     exit on their local clocks, so CPU-contention skew after a
     consolidation stranded laggards inside an allreduce (Sim.Deadlock).
     The workload now broadcasts rank 0's verdict. *)
  run_repro collective_exit_repro

let test_regression_reroute_overcommit () =
  (* Found by `check -n 1000 --seed 7` once the host-overcommit invariant
     landed: when a consolidation destination died, the scheduler's
     reroute only looked at current placement, so every displaced VM was
     sent to the first node that merely looked empty — 4 VMs * 14 GB on a
     51.5 GB host. The reroute now counts in-flight destinations and
     checks memory and the vms_per_host cap. *)
  run_repro reroute_overcommit_repro

let test_regression_reroute_cross_fabric () =
  (* Found by `check -n 1000 --seed 1` once the reroute gained capacity
     checks: a drain's Ethernet destination died and the reroute legally
     picked an IB node with room — but [Ninja.migrate]'s device plan was
     computed for the Ethernet destination, so the VM landed on IB with
     no HCA. Reroutes now stay in the planned destination's interconnect
     class. *)
  run_repro reroute_cross_fabric_repro

let test_regression_collective_exit_race_postcopy () =
  run_repro (postcopy_variant collective_exit_repro)

let test_regression_reroute_overcommit_postcopy () =
  run_repro (postcopy_variant reroute_overcommit_repro)

let test_regression_reroute_cross_fabric_postcopy () =
  run_repro (postcopy_variant reroute_cross_fabric_repro)

let () =
  Alcotest.run "ninja_check"
    [
      ( "scenario",
        Alcotest.test_case "parse errors" `Quick test_scenario_parse_errors
        :: Alcotest.test_case "comments and defaults" `Quick
             test_scenario_parse_comments_and_defaults
        :: Alcotest.test_case "generation is deterministic" `Quick
             test_generate_deterministic
        :: Qsuite.tests [ scenario_roundtrip_prop; generated_scenarios_validate_prop ] );
      ( "strategies",
        Qsuite.tests [ strategies_safe_prop ]
        @ [
            Alcotest.test_case "staged swap hops are demoted to precopy" `Quick
              test_staged_swap_demotes_postcopy;
          ] );
      ( "checker",
        [
          Alcotest.test_case "fence pairing" `Quick test_checker_fence_pairing;
          Alcotest.test_case "plan acyclicity and permit balance" `Quick
            test_checker_plan_and_permits;
          Alcotest.test_case "attach balance and fence gate" `Quick
            test_checker_attach_balance_and_fence_gate;
          Alcotest.test_case "rollback giveup is excused" `Quick
            test_checker_excuses_giveup;
          Alcotest.test_case "two checkers share one cluster" `Quick
            test_checker_two_per_cluster;
        ] );
      ( "probe",
        [
          Alcotest.test_case "idle bus is free; delivery in order" `Quick
            test_probe_idle_is_free;
          Alcotest.test_case "attach/detach/with_subscriber scoping" `Quick
            test_probe_subscription_scoping;
          Alcotest.test_case "rendering keeps the wire format" `Quick
            test_probe_wire_format;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "small campaign is green" `Quick test_campaign_green;
          Alcotest.test_case "parallel campaign matches serial" `Quick
            test_campaign_parallel_matches_serial;
          Alcotest.test_case "runner is deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "planted skip-fence is caught" `Quick
            test_plant_skip_fence_caught;
          Alcotest.test_case "planted skip-rollback is caught and replays" `Quick
            test_plant_skip_rollback_caught_and_replays;
          Alcotest.test_case "failures shrink to smaller failures" `Quick
            test_shrink_result_minimises;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "collective exit race (fuzzer-found)" `Quick
            test_regression_collective_exit_race;
          Alcotest.test_case "reroute overcommit (fuzzer-found)" `Quick
            test_regression_reroute_overcommit;
          Alcotest.test_case "reroute cross-fabric (fuzzer-found)" `Quick
            test_regression_reroute_cross_fabric;
          Alcotest.test_case "collective exit race, postcopy" `Quick
            test_regression_collective_exit_race_postcopy;
          Alcotest.test_case "reroute overcommit, postcopy" `Quick
            test_regression_reroute_overcommit_postcopy;
          Alcotest.test_case "reroute cross-fabric, postcopy" `Quick
            test_regression_reroute_cross_fabric_postcopy;
        ] );
    ]
