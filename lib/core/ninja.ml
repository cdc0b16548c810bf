open Ninja_engine
open Ninja_guestos
open Ninja_hardware
open Ninja_mpi
open Ninja_symvirt
open Ninja_telemetry
open Ninja_vmm

type vnode = { vm : Vm.t; guest : Guest.t; endpoint : Hypercall.t }

type outcome =
  | Completed
  | Rolled_back of string
  | Lost of string
      (* A postcopy switchover committed and then the source died: the VM
         has no complete image anywhere, so rollback-to-source is
         impossible. Terminal — surviving VMs are still restored. *)

type t = {
  cluster : Cluster.t;
  sim : Sim.t;
  nodes : vnode list;
  mutable procs_per_vm : int;
  mutable rt : Runtime.t option;
  (* Multi-fence protocol state: while true, coordinators that wake from a
     SymVirt signal immediately re-enter symvirt_wait, giving the
     controller one fence per VMM operation group (Fig. 5). *)
  mutable operation_active : bool;
  mutable abort_check : unit -> bool;
  mutable last_outcome : outcome option;
}

exception Not_launched

(* Internal: a VMM operation phase could not complete in its retry
   attempts; the migration must roll back. *)
exception Phase_failed of string

let make cluster nodes =
  {
    cluster;
    sim = Cluster.sim cluster;
    nodes;
    procs_per_vm = 0;
    rt = None;
    operation_active = false;
    abort_check = (fun () -> false);
    last_outcome = None;
  }

let setup cluster ~hosts ?(mem_gb = 20.0) ?(attach_hca = true) () =
  if hosts = [] then invalid_arg "Ninja.setup: no hosts";
  let nodes =
    List.mapi
      (fun i host ->
        let vm =
          Vm.create cluster
            ~name:(Printf.sprintf "vm%d" i)
            ~host ~vcpus:8 ~mem_bytes:(Units.gb mem_gb) ()
        in
        if attach_hca && Node.has_ib host then
          Vm.attach_device vm (Device.hca ());
        let guest = Guest.boot vm in
        { vm; guest; endpoint = Hypercall.create vm })
      hosts
  in
  make cluster nodes

let of_vms cluster ~vms =
  if vms = [] then invalid_arg "Ninja.of_vms: no VMs";
  let nodes =
    List.map (fun vm -> { vm; guest = Guest.boot vm; endpoint = Hypercall.create vm }) vms
  in
  make cluster nodes

let set_abort_check t f = t.abort_check <- f

let cluster t = t.cluster

let vnodes t = t.nodes

let vms t = List.map (fun n -> n.vm) t.nodes

let endpoint_of t vm =
  match List.find_opt (fun n -> n.vm == vm) t.nodes with
  | Some n -> n.endpoint
  | None -> invalid_arg "Ninja: VM is not managed by this instance"

(* The SymVirt coordinator, installed as the SELF CRS callbacks: at
   checkpoint time each MPI process issues symvirt_wait, and keeps
   re-entering the wait while a multi-fence operation is in flight (the
   guest briefly runs between fences so the OS can process ACPI events,
   Fig. 4/5). The continue callback is a no-op here because BTL
   reconstruction and link confirmation live in the runtime's continue
   path. *)
let ft_hooks t =
  {
    Rank.on_checkpoint =
      (fun proc ->
        let ep = endpoint_of t (Rank.vm proc) in
        Hypercall.guest_wait ep;
        while t.operation_active do
          Hypercall.guest_wait ep
        done;
        if t.abort_check () then raise Rank.Job_aborted);
    Rank.on_continue = (fun _ -> ());
  }

let launch t ~procs_per_vm body =
  (match t.rt with Some _ -> invalid_arg "Ninja.launch: job already launched" | None -> ());
  t.procs_per_vm <- procs_per_vm;
  let members = List.map (fun n -> (n.vm, n.guest)) t.nodes in
  let rt =
    Runtime.mpirun t.cluster ~members ~procs_per_vm ~ft_hooks:(ft_hooks t) body
  in
  t.rt <- Some rt;
  rt

let runtime t = match t.rt with Some rt -> rt | None -> raise Not_launched

let procs_per_vm t = t.procs_per_vm

let wait_job t = Runtime.wait (runtime t)

let controller t =
  Controller.create t.cluster
    ~members:
      (List.map
         (fun n -> { Controller.vm = n.vm; endpoint = n.endpoint; procs = t.procs_per_vm })
         t.nodes)

let default_detach vm =
  match Vm.find_device vm ~tag:Device.hca_tag with Some _ -> [ Device.hca_tag ] | None -> []

let default_attach plan vm = if Node.has_ib (plan vm) then [ Device.hca () ] else []

(* The complete Fig. 4 control flow. Each VMM operation group gets its
   own wait_all/signal pair, exactly like the Fig. 5 script — the guest
   runs briefly between fences so the OS can process ACPI events.
   {!Script} is the single-fence form of the same sequence (measured
   overheads are equal, asserted by tests).

   The flow is transactional: each VMM phase retries failed VMs on the
   {!Retry} schedule, and when a phase still cannot complete the whole
   operation rolls back — every VM returns to its origin node, detached
   bypass devices are re-attached where the source hardware allows, the
   fence is released and the guests resume where they were. [migrate]
   never leaks an exception from an injected fault; callers read
   {!last_outcome} to distinguish a completed migration from a rollback. *)
let migrate t ~plan ?(mode = Migration.Precopy) ?detach:detach_f ?attach:attach_f
    ?migration_exec () =
  let rt = runtime t in
  if Runtime.is_finished rt then
    invalid_arg "Ninja.migrate: the MPI job has already finished (nothing to fence)";
  let sim = t.sim in
  let detach_f = Option.value detach_f ~default:default_detach in
  let attach_f = Option.value attach_f ~default:(default_attach plan) in
  let moving = List.exists (fun n -> (plan n.vm).Node.id <> (Vm.host n.vm).Node.id) t.nodes in
  let noise = if moving then Calibration.hotplug_noise_factor else 1.0 in
  let ctl = controller t in
  t.last_outcome <- None;
  (* Rollback bookkeeping: where every VM started, and which devices the
     detach phase actually removed (so rollback can restore them). *)
  let origins = List.map (fun n -> (n.vm, Vm.host n.vm)) t.nodes in
  let origin_of vm = List.assq vm origins in
  let removed = List.map (fun n -> (n.vm, ref [])) t.nodes in
  let removed_of vm = List.assq vm removed in
  let remember_removed vm (d : Device.t) =
    let r = removed_of vm in
    if not (List.exists (fun (e : Device.t) -> e.Device.tag = d.Device.tag) !r) then
      r := d :: !r
  in
  let probes = Cluster.probes t.cluster in
  (* Each span transition goes out on the bus (a no-op while nothing is
     subscribed) and into a private recorder: the returned breakdown is
     derived from its one root, by construction the tree a viewer shows. *)
  let spans = Recorder.create () in
  let span payload =
    Probe.emit probes payload;
    Recorder.on_event spans { Probe.at = Sim.now sim; topic = Probe.topic payload; payload }
  in
  let proc = "ninja" and thread = "migration" in
  let enter ?(args = []) name cat = span (Probe.Span_begin { name; cat; proc; thread; args }) in
  let exit_ name = span (Probe.Span_end { name; proc; thread; args = [] }) in
  let note ?(args = []) name cat ~start =
    span
      (Probe.Span_note { name; cat; proc; thread; start = Time.min start (Sim.now sim); args })
  in
  let in_span name cat f =
    enter name cat;
    Fun.protect ~finally:(fun () -> exit_ name) f
  in
  if Probe.active probes then
    Probe.emit probes
      (Probe.Migrate_start
         { batch = ""; origins = List.map (fun (vm, o) -> (Vm.name vm, o.Node.name)) origins });
  let started = Sim.now sim in
  enter "migration" "migration";
  (* 1. Trigger: the runtime tells every process to reach a safe point and
     call into the coordinator; the controller waits for the fence. *)
  t.operation_active <- true;
  enter "coordination" "phase";
  let complete = Runtime.request_checkpoint rt in
  Controller.wait_all ctl;
  exit_ "coordination";
  let next_fence () =
    Controller.signal ctl;
    Controller.wait_all ctl
  in
  let release_fence () =
    t.operation_active <- false;
    Controller.signal ctl
  in
  (* A VMM phase with per-VM retry: only the VMs whose agent reported an
     error are re-issued their (idempotent) command lists, after the
     retry backoff. Sim-time spent on failed attempts and backoff
     sleeps is recorded as ["retry"]-category spans, which the breakdown
     derivation sums. [best_effort] phases (rollback) log and drop VMs
     that exhaust their attempts instead of raising. *)
  let phase ~name ?(best_effort = false) ?(retryable = fun _vm _msg -> true) commands_for =
    let rec go attempt pending =
      let a0 = Sim.now sim in
      let results =
        Controller.run_agents_results ctl (fun vm ->
            if List.memq vm pending then commands_for vm else [])
      in
      let failed =
        List.filter_map
          (fun (vm, responses) ->
            match Controller.first_error responses with
            | Some msg -> Some (vm, msg)
            | None -> None)
          results
      in
      if failed <> [] then begin
        note "retry-attempt" "retry" ~start:a0
          ~args:[ ("phase", name); ("attempt", string_of_int attempt) ];
        let fatals, transients = List.partition (fun (vm, msg) -> not (retryable vm msg)) failed in
        if best_effort then
          List.iter
            (fun (vm, _msg) ->
              Probe.emit probes (Probe.Migrate_giveup { vm = Vm.name vm; phase = name }))
            fatals
        else (
          match fatals with
          | (vm, msg) :: _ ->
              raise (Phase_failed (Printf.sprintf "%s: %s: %s" name (Vm.name vm) msg))
          | [] -> ());
        if transients <> [] then begin
          if attempt >= Retry.max_attempts then begin
            let vm, msg = List.hd transients in
            if best_effort then
              List.iter
                (fun (vm, _msg) ->
                  Probe.emit probes (Probe.Migrate_giveup { vm = Vm.name vm; phase = name }))
                transients
            else
              raise
                (Phase_failed
                   (Printf.sprintf "%s: %s: %s (after %d attempts)" name (Vm.name vm) msg
                      attempt))
          end
          else begin
            enter "backoff" "retry" ~args:[ ("phase", name) ];
            Sim.sleep (Retry.backoff ~attempt);
            exit_ "backoff";
            go (attempt + 1) (List.map fst transients)
          end
        end
      end
    in
    go 1 (List.map (fun n -> n.vm) t.nodes)
  in
  (* Idempotent command builders: each consults live VM state, so a retry
     re-issues only what is still missing and a successful VM gets an
     empty list. *)
  let detach_builder vm =
    let devices = List.filter_map (fun tag -> Vm.find_device vm ~tag) (detach_f vm) in
    List.iter (remember_removed vm) devices;
    List.map (fun (d : Device.t) -> Qmp.Device_del { tag = d.Device.tag; noise }) devices
  in
  let migration_builder vm =
    [ Qmp.Migrate { dst = plan vm; transport = Migration.Tcp; mode } ]
  in
  let attach_builder vm =
    attach_f vm
    |> List.filter (fun (d : Device.t) -> Vm.find_device vm ~tag:d.Device.tag = None)
    |> List.map (fun device -> Qmp.Device_add { device; noise })
  in
  (* 2–4. Detach, migrate, re-attach — each phase under retry, each a
     direct child span of the migration root. *)
  let result =
    try
      in_span "detach" "phase" (fun () -> phase ~name:"detach" detach_builder);
      next_fence ();
      (* The migration-phase span is named by mode so the breakdown and
         telemetry consumers can tell the copy strategies apart. *)
      in_span (Migration.mode_name mode) "phase" (fun () ->
          match migration_exec with
          | Some exec -> exec ()
          | None ->
              phase ~name:"migration"
                ~retryable:(fun vm _msg ->
                  (* A lost VM must never be re-issued a migrate; fail the
                     phase immediately so the rollback can run. *)
                  (not (Vm.is_lost vm)) && Cluster.node_alive t.cluster (plan vm))
                migration_builder);
      next_fence ();
      in_span "attach" "phase" (fun () -> phase ~name:"attach" attach_builder);
      Ok ()
    with
    | Phase_failed reason -> Error reason
    | exn when Retry.retryable exn -> Error (Printexc.to_string exn)
  in
  (match result with
  | Ok () ->
      t.last_outcome <- Some Completed;
      Probe.emit probes (Probe.Migrate_complete { batch = "" });
      (* 5. Final signal; guests confirm link-up and rebuild transports. *)
      release_fence ()
  | Error reason ->
      (* The whole rollback is charged to the breakdown's retry bucket as
         one span; retry spans nested inside it are excluded from the sum,
         so the inner failed attempts are not double-billed. *)
      enter "rollback" "rollback" ~args:[ ("reason", reason) ];
      (* A VM lost to a mid-drain source death has no complete image to
         restore: it stays paused at the destination and every rollback
         phase skips it — re-issuing commands to it would be exactly the
         "silently keep running with missing pages" failure mode. *)
      let restorable vm = not (Vm.is_lost vm) in
      (* a. Strip bypass devices from any VM that must travel back (a
         partially completed attach would otherwise pin it in place). *)
      in_span "rollback-detach" "phase" (fun () ->
          phase ~name:"rollback-detach" ~best_effort:true (fun vm ->
              if restorable vm && (Vm.host vm).Node.id <> (origin_of vm).Node.id then begin
                let stuck =
                  List.filter
                    (fun (d : Device.t) -> Vm.find_device vm ~tag:d.Device.tag <> None)
                    (attach_f vm)
                in
                List.iter (remember_removed vm) stuck;
                List.map
                  (fun (d : Device.t) -> Qmp.Device_del { tag = d.Device.tag; noise })
                  stuck
              end
              else []));
      (* b. Return every displaced VM to its origin. *)
      in_span "rollback-return" "phase" (fun () ->
          phase ~name:"rollback-return" ~best_effort:true
            ~retryable:(fun vm _msg ->
              restorable vm && Cluster.node_alive t.cluster (origin_of vm))
            (fun vm ->
              if restorable vm && (Vm.host vm).Node.id <> (origin_of vm).Node.id then
                (* The return trip is always precopy: the origin still holds
                   nothing, so there is no hot set to lean on, and a second
                   committed switchover would compound the failure. *)
                [ Qmp.Migrate
                    { dst = origin_of vm; transport = Migration.Tcp; mode = Migration.Precopy } ]
              else []));
      (* c. Re-attach what the detach phase removed, where the (source)
         hardware still backs it. *)
      in_span "rollback-attach" "phase" (fun () ->
          phase ~name:"rollback-attach" ~best_effort:true (fun vm ->
              if not (restorable vm) then []
              else
                !(removed_of vm)
              |> List.filter (fun (d : Device.t) ->
                     Vm.find_device vm ~tag:d.Device.tag = None
                     && (not (Device.is_bypass d.Device.kind) || Node.has_ib (Vm.host vm)))
              |> List.map (fun device -> Qmp.Device_add { device; noise })));
      exit_ "rollback";
      let lost = List.filter (fun n -> Vm.is_lost n.vm) t.nodes in
      t.last_outcome <- Some (if lost = [] then Rolled_back reason else Lost reason);
      Probe.emit probes
        (Probe.Migrate_rollback
           { batch = ""; origins = []; reason; lost = List.map (fun n -> Vm.name n.vm) lost });
      (* Release the fence exactly like a completed operation would. *)
      release_fence ());
  Runtime.await_checkpoint_complete complete;
  (* Link-up (BTL reconstruction + port polling) happens inside the
     runtime's continue path and is only known after the fact; its
     interval ends exactly when the checkpoint completes. *)
  let linkup = Runtime.last_linkup_wait rt in
  note "link-up" "phase" ~start:(Time.max started (Time.diff (Sim.now sim) linkup));
  exit_ "migration";
  Export.breakdown_of_root (List.hd (Recorder.roots spans))

let last_outcome t = t.last_outcome

let plan_of_dsts t dsts =
  if List.length dsts <> List.length t.nodes then
    invalid_arg "Ninja: destination list length does not match VM count";
  let table = List.combine (vms t) dsts in
  fun vm -> List.assq vm table

let fallback t ~dsts ?mode () = migrate t ~plan:(plan_of_dsts t dsts) ?mode ()

let recovery t ~dsts () = migrate t ~plan:(plan_of_dsts t dsts) ()

let self_migration t = migrate t ~plan:(fun vm -> Vm.host vm) ()

let checkpoint_to_store t store ~name_prefix =
  let rt = runtime t in
  let ctl = controller t in
  let complete = Runtime.request_checkpoint rt in
  Controller.wait_all ctl;
  let snaps =
    List.mapi
      (fun i n -> Snapshot.save store n.vm ~name:(Printf.sprintf "%s-%d" name_prefix i))
      t.nodes
  in
  Controller.signal ctl;
  Runtime.await_checkpoint_complete complete;
  snaps
