open Ninja_engine
open Ninja_faults
open Ninja_hardware
open Ninja_vmm
open Ninja_mpi
open Ninja_core
open Ninja_scheduler

type outcome = Passed | Violated of Checker.violation list | Crashed of string

type result = {
  scenario : Scenario.t;
  outcome : outcome;
  events : int;
  sim_end : float;
}

let failed r = match r.outcome with Passed -> false | Violated _ | Crashed _ -> true

(* The persistent fault that guarantees the skip-rollback plant actually
   reaches its rollback path. *)
let abort_forever = "precopy-abort:count=inf"

let effective_faults (sc : Scenario.t) =
  match sc.Scenario.plant with
  | Some Scenario.Skip_rollback when not (List.mem abort_forever sc.Scenario.faults) ->
    sc.Scenario.faults @ [ abort_forever ]
  | _ -> sc.Scenario.faults

(* The VMs' starting nodes. On the spec path these are ib00..ibNN (rack
   0); on the topology path, the first hosts of the first IB rack —
   either way origin 0 anchors the Drain and Disaster triggers, so the
   two cluster shapes share one trigger/check definition. *)
let origin_hosts cluster (sc : Scenario.t) =
  let names =
    match sc.Scenario.topo with
    | None -> List.init sc.Scenario.vms (Printf.sprintf "ib%02d")
    | Some _ ->
      List.init sc.Scenario.vms (fun i -> Topology.host_name ~pod:0 ~rack:0 ~host:i)
  in
  List.map (Cluster.find_node cluster) names

let trigger_of cluster ~origins (sc : Scenario.t) =
  let eth = Cluster.eth_only_nodes cluster in
  let origin0 : Node.t = List.hd origins in
  match sc.Scenario.trigger with
  | Scenario.Drain ->
    Cloud_scheduler.Maintenance { avoid = (fun n -> n.Node.name = origin0.Node.name) }
  | Scenario.Disaster -> Cloud_scheduler.Disaster { rack = origin0.Node.rack }
  | Scenario.Consolidate k ->
    Cloud_scheduler.Consolidate { vms_per_host = k; targets = eth }
  | Scenario.Rebalance -> Cloud_scheduler.Rebalance { targets = eth }

let trigger_satisfied ~origins (sc : Scenario.t) host =
  let origin0 : Node.t = List.hd origins in
  match sc.Scenario.trigger with
  | Scenario.Drain -> host.Node.name <> origin0.Node.name
  | Scenario.Disaster -> host.Node.rack <> origin0.Node.rack
  | Scenario.Consolidate _ | Scenario.Rebalance -> not (Node.has_ib host)

(* Time-bounded loop with a collectively agreed exit: rank 0 evaluates the
   deadline and its verdict rides a broadcast, so every rank executes the
   same number of collectives. Exiting on local clocks strands laggards
   inside a collective once rank skew builds up — e.g. CPU contention
   after a consolidation doubles VMs up on a host. *)
let workload (sc : Scenario.t) stop ctx =
  while not !stop do
    Mpi.compute ctx ~seconds:sc.Scenario.compute;
    Mpi.allreduce ctx ~bytes:sc.Scenario.msg_bytes;
    if Mpi.rank ctx = 0 && Mpi.wtime ctx >= sc.Scenario.until then stop := true;
    (* Non-root ranks cannot complete the broadcast before rank 0 enters
       it, so by the time any rank re-reads [stop], rank 0 has written
       this iteration's verdict. *)
    Mpi.bcast ctx ~root:0 ~bytes:8.0;
    Mpi.checkpoint_point ctx
  done

(* The planted bug: a direct VMM-layer migration behind the protocol's
   back — no fence, no rollback bookkeeping. Fault injection is cleared
   first so the buggy path itself executes cleanly; the point is that
   the checker, not a crash, flags it. *)
let sneak_migrate cluster vm =
  Injector.clear (Cluster.injector cluster);
  let dst =
    Cluster.eth_only_nodes cluster
    |> List.find_opt (fun n ->
           Cluster.node_alive cluster n && n.Node.id <> (Vm.host vm).Node.id)
  in
  match dst with
  | None -> ()
  | Some dst ->
    (match Vm.find_device vm ~tag:Device.hca_tag with
    | Some _ -> ignore (Vm.detach_device vm ~tag:Device.hca_tag)
    | None -> ());
    ignore (Migration.migrate vm ~dst ~transport:Migration.Tcp ())

let apply_plant (sc : Scenario.t) cluster ninja =
  match sc.Scenario.plant with
  | None -> ()
  | Some Scenario.Skip_fence -> sneak_migrate cluster (List.hd (Ninja.vms ninja))
  | Some Scenario.Skip_rollback -> (
    match Ninja.last_outcome ninja with
    | Some (Ninja.Rolled_back _) -> sneak_migrate cluster (List.hd (Ninja.vms ninja))
    (* A lost VM cannot be migrated at all — the plant has nothing to
       sneak past the protocol. *)
    | Some (Ninja.Lost _) | Some Ninja.Completed | None -> ())

(* Every VM that is neither lost nor excused must be back on its origin
   once the migration has failed; [after] names how it failed. *)
let check_restored ~origins ninja checker ~after =
  List.iteri
    (fun i vm ->
      let origin = (List.nth origins i).Node.name in
      if
        (not (Vm.is_lost vm))
        && (not (Checker.excused checker (Vm.name vm)))
        && (Vm.host vm).Node.name <> origin
      then
        Checker.record checker ~invariant:"rollback-restore"
          ~detail:
            (Printf.sprintf "%s ends on %s after %s; its origin is %s" (Vm.name vm)
               (Vm.host vm).Node.name after origin))
    (Ninja.vms ninja)

let final_checks ~origins (sc : Scenario.t) ninja checker =
  match Ninja.last_outcome ninja with
  | None ->
    Checker.record checker ~invariant:"migration-ran"
      ~detail:"the scheduler trigger never performed a migration"
  | Some Ninja.Completed ->
    List.iter
      (fun vm ->
        let host = Vm.host vm in
        if not (trigger_satisfied ~origins sc host) then
          Checker.record checker ~invariant:"trigger-satisfied"
            ~detail:
              (Printf.sprintf "%s ended on %s, which violates trigger %s" (Vm.name vm)
                 host.Node.name
                 (Scenario.trigger_to_string sc.Scenario.trigger)))
      (Ninja.vms ninja)
  | Some (Ninja.Rolled_back _) ->
    (* Mode-aware rollback: a rollback must actually restore-to-source.
       Reporting [Rolled_back] while a VM is lost would claim a restore
       that never happened — that is the [Lost] outcome's job. *)
    List.iter
      (fun vm ->
        if Vm.is_lost vm then
          Checker.record checker ~invariant:"lost-unreported"
            ~detail:
              (Printf.sprintf
                 "%s was lost mid-postcopy but the outcome claims a clean rollback"
                 (Vm.name vm)))
      (Ninja.vms ninja);
    check_restored ~origins ninja checker ~after:"a rollback"
  | Some (Ninja.Lost _) ->
    (* The terminal postcopy outcome: at least one VM must really be
       lost (and paused — {!Checker.check_finish} asserts that part),
       and every surviving VM must still have been restored to source. *)
    if not (List.exists Vm.is_lost (Ninja.vms ninja)) then
      Checker.record checker ~invariant:"lost-accounting"
        ~detail:"outcome is Lost but no VM is marked lost";
    check_restored ~origins ninja checker ~after:"a lost migration"

let run ?attach scenario =
  let checker_ref = ref None in
  let sim_ref = ref None in
  let outcome =
    match Scenario.validate scenario with
    | Error e -> Crashed ("invalid scenario: " ^ e)
    | Ok () -> (
      try
        let sim = Sim.create ~seed:scenario.Scenario.seed () in
        sim_ref := Some sim;
        let cluster =
          match scenario.Scenario.topo with
          | Some topo -> Cluster.create sim ~topology:topo ()
          | None ->
            let spec =
              Spec.make ~ib_nodes:scenario.Scenario.ib
                ~eth_nodes:scenario.Scenario.eth ()
            in
            Cluster.create sim ~spec ()
        in
        (match scenario.Scenario.uplink_gbps with
        | Some g ->
          Cluster.set_inter_rack cluster ~rack_a:0 ~rack_b:1 ~capacity:(Units.gbps g)
            ~latency:(Time.ms 5)
        | None -> ());
        List.iter
          (fun text ->
            match Injector.parse_spec text with
            | Ok spec -> Injector.arm_spec (Cluster.injector cluster) spec
            | Error e -> failwith (Printf.sprintf "bad fault spec %S: %s" text e))
          (effective_faults scenario);
        (* Extra observers (e.g. a telemetry recorder under test) join the
           bus before any fleet activity. *)
        Option.iter (fun f -> f cluster) attach;
        let origins = origin_hosts cluster scenario in
        let ninja =
          Ninja.setup cluster ~hosts:origins ~mem_gb:scenario.Scenario.mem_gb ()
        in
        Checker.with_checker cluster ~vms:(Ninja.vms ninja) @@ fun checker ->
        checker_ref := Some checker;
        let stop = ref false in
        ignore
          (Ninja.launch ninja ~procs_per_vm:scenario.Scenario.procs
             (workload scenario stop));
        let traffic =
          match scenario.Scenario.traffic with
          | None -> []
          | Some text -> (
            match Ninja_workloads.Traffic.of_string text with
            | Error e -> failwith e
            | Ok pattern ->
              (* A dedicated split keyed off the sim stream: drawn at a
                 fixed point in setup, so equal scenarios get equal
                 matrices and traffic-less scenarios leave the stream
                 untouched. *)
              let prng = Prng.split (Sim.prng sim) in
              Ninja_workloads.Traffic.matrix prng pattern
                ~vms:(List.map Vm.name (Ninja.vms ninja)))
        in
        let sched =
          Cloud_scheduler.create ~strategy:scenario.Scenario.strategy
            ~mode:scenario.Scenario.mode ~traffic ninja
        in
        Cloud_scheduler.schedule sched
          ~after:(Time.of_sec_f scenario.Scenario.trigger_at)
          (trigger_of cluster ~origins scenario);
        if scenario.Scenario.plant <> None then
          Sim.spawn sim ~name:"plant" (fun () ->
              Ninja.wait_job ninja;
              apply_plant scenario cluster ninja);
        Sim.run sim;
        Checker.check_finish checker;
        final_checks ~origins scenario ninja checker;
        match Checker.violations checker with [] -> Passed | vs -> Violated vs
      with
      | Sim.Deadlock stuck ->
        Crashed (Printf.sprintf "deadlock; stuck fibers: %s" (String.concat ", " stuck))
      | exn -> Crashed (Printexc.to_string exn))
  in
  {
    scenario;
    outcome;
    events = (match !checker_ref with Some c -> Checker.events_seen c | None -> 0);
    sim_end =
      (match !sim_ref with Some s -> Time.to_sec_f (Sim.now s) | None -> 0.0);
  }

let pp_result fmt r =
  match r.outcome with
  | Passed ->
    Format.fprintf fmt "PASS (%d events, sim ended at %.1fs): %a" r.events r.sim_end
      Scenario.pp r.scenario
  | Crashed msg -> Format.fprintf fmt "CRASH %s: %a" msg Scenario.pp r.scenario
  | Violated vs ->
    Format.fprintf fmt "@[<v>FAIL (%d violation(s)): %a" (List.length vs) Scenario.pp
      r.scenario;
    List.iter (fun v -> Format.fprintf fmt "@,  %a" Checker.pp_violation v) vs;
    Format.fprintf fmt "@]"
