open Ninja_engine
open Ninja_flownet
open Ninja_hardware
open Ninja_vmm
module Recorder = Ninja_telemetry.Recorder
module Span = Ninja_telemetry.Span

type violation = { invariant : string; at : Time.t; detail : string }

type t = {
  cluster : Cluster.t;
  vms : (string, Vm.t) Hashtbl.t;
  mutable rev_violations : violation list;
  mutable last_at : Time.t;
  fenced : (string, string) Hashtbl.t;  (* vm -> id of the fence holding it *)
  active_fences : (string, string list) Hashtbl.t;  (* fence id -> vms *)
  attached : (string, string list ref) Hashtbl.t;  (* vm -> attached tags *)
  gave_up : (string, unit) Hashtbl.t;
  lost : (string, unit) Hashtbl.t;
      (* VMs reported lost by a [Migration_lost] probe: a committed
         postcopy switchover whose source died. Never cleared — loss is
         terminal, so later batches must not move or restore these VMs. *)
  pull_remaining : (string, float) Hashtbl.t;
      (* vm -> the last [Migration_pull] probe's remaining bytes;
         cleared by [Migration_done] (drain finished) or [Migration_lost]. An
         entry surviving to the end of the run is an abandoned drain. *)
  origins : (string, (string * string) list) Hashtbl.t;
      (* batch -> (vm, host at migrate start); key "" for unbatched flows *)
  spans : Recorder.t;
      (* Fed only span events: reassembles the emitters' span
         trees so {!check_finish} can audit their structure without
         retaining the rest of the stream. *)
  feed : Fabric.reader;  (* the links re-solved since the last event *)
  mutable over : Fabric.link list;
      (* Links over capacity at the last event, in link-id order; empty on
         a clean run. *)
  mutable events : int;
  mutable sub : Probe.subscription option;
}

let watched t name = Hashtbl.mem t.vms name

let record_at t ~at ~invariant ~detail =
  t.rev_violations <- { invariant; at; detail } :: t.rev_violations

let record t ~invariant ~detail =
  record_at t ~at:(Sim.now (Cluster.sim t.cluster)) ~invariant ~detail

let excused t name = Hashtbl.mem t.gave_up name

let violations t = List.rev t.rev_violations

let events_seen t = t.events

let pp_violation fmt v =
  Format.fprintf fmt "[%a] %s: %s" Time.pp v.at v.invariant v.detail

(* Allow float round-off plus a byte of slack per link: progressive
   filling distributes exact shares, so anything beyond that is a real
   oversubscription. *)
let conserved ~capacity ~utilization =
  utilization <= (capacity *. (1.0 +. 1e-6)) +. 1.0

let rec insert_by_id l = function
  | [] -> [ l ]
  | x :: rest as links ->
    if Fabric.link_id l < Fabric.link_id x then l :: links
    else if Fabric.link_id l = Fabric.link_id x then links
    else x :: insert_by_id l rest

let recheck t fabric link =
  let utilization = Fabric.link_utilization fabric link in
  if not (conserved ~capacity:(Fabric.link_capacity link) ~utilization) then
    t.over <- insert_by_id link t.over

(* Only links the fabric re-solved since the last event can have changed,
   so test those, then report every link still over capacity in creation
   (id) order, as a sweep of all links would. A link that has since
   recovered or been removed (it carries nothing) leaves the set. *)
let check_flow_conservation t at =
  let fabric = Cluster.fabric t.cluster in
  Fabric.drain t.feed (recheck t fabric);
  match t.over with
  | [] -> ()
  | over ->
    t.over <-
      List.filter
        (fun link ->
          let cap = Fabric.link_capacity link in
          let util = Fabric.link_utilization fabric link in
          let still = not (conserved ~capacity:cap ~utilization:util) in
          if still then
            record_at t ~at ~invariant:"flow-conservation"
              ~detail:
                (Printf.sprintf "link %s carries %.3g B/s over capacity %.3g B/s"
                   (Fabric.link_name link) util cap);
          still)
        over

let tags_of t name =
  match Hashtbl.find_opt t.attached name with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add t.attached name r;
    r

let on_event t (e : Probe.event) =
  t.events <- t.events + 1;
  let at = e.Probe.at in
  (match e.Probe.payload with
  | Probe.Span_begin _ | Probe.Span_end _ | Probe.Span_note _ -> Recorder.on_event t.spans e
  | _ -> ());
  if Time.( < ) at t.last_at then begin
    let action, _, _ = Probe.render e.Probe.payload in
    record_at t ~at ~invariant:"clock-monotone"
      ~detail:
        (Format.asprintf "%s/%s at %a precedes an earlier event at %a" e.Probe.topic action
           Time.pp at Time.pp t.last_at)
  end;
  t.last_at <- Time.max t.last_at at;
  check_flow_conservation t at;
  match e.Probe.payload with
  | Probe.Fence_enter { id; vms } ->
    (* Concurrent fences are fine as long as ids are fresh and their VM
       sets are disjoint: one batch may never fence a VM another batch
       already holds quiesced. *)
    if Hashtbl.mem t.active_fences id || List.exists (Hashtbl.mem t.fenced) vms then
      record_at t ~at ~invariant:"fence-pairing"
        ~detail:
          (Printf.sprintf "fence %S entered while one of its VMs was already fenced"
             id);
    let prev = Option.value (Hashtbl.find_opt t.active_fences id) ~default:[] in
    Hashtbl.replace t.active_fences id (prev @ vms);
    List.iter (fun vm -> Hashtbl.replace t.fenced vm id) vms
  | Probe.Fence_release { id; _ } -> (
    match Hashtbl.find_opt t.active_fences id with
    | None ->
      record_at t ~at ~invariant:"fence-pairing"
        ~detail:"fence released without a matching enter"
    | Some vms ->
      List.iter
        (fun vm ->
          match Hashtbl.find_opt t.fenced vm with
          | Some owner when owner = id -> Hashtbl.remove t.fenced vm
          | _ -> ())
        vms;
      Hashtbl.remove t.active_fences id)
  | Probe.Vm_migrated { vm; src; dst; bypass } when watched t vm ->
    if not (Hashtbl.mem t.fenced vm) then
      record_at t ~at ~invariant:"fence-before-migrate"
        ~detail:(Printf.sprintf "%s moved %s -> %s outside a SymVirt fence" vm src dst);
    if bypass then
      record_at t ~at ~invariant:"bypass-migrate"
        ~detail:
          (Printf.sprintf "%s migrated to %s with a VMM-bypass device attached" vm dst)
  | Probe.Device_add { vm; tag; _ } when watched t vm ->
    let tags = tags_of t vm in
    if List.mem tag !tags then
      record_at t ~at ~invariant:"attach-balance"
        ~detail:(Printf.sprintf "%s: duplicate attach of %s" vm tag)
    else tags := tag :: !tags
  | Probe.Device_del { vm; tag } when watched t vm ->
    let tags = tags_of t vm in
    if not (List.mem tag !tags) then
      record_at t ~at ~invariant:"attach-balance"
        ~detail:(Printf.sprintf "%s: detach of absent device %s" vm tag)
    else tags := List.filter (fun x -> x <> tag) !tags
  | Probe.Plan_built { steps; acyclic; _ } ->
    if not acyclic then
      record_at t ~at ~invariant:"plan-acyclic"
        ~detail:(Printf.sprintf "plan of %d steps has a dependency cycle" steps)
  | Probe.Executor_report { permits_leaked; _ } ->
    if permits_leaked <> 0 then
      record_at t ~at ~invariant:"permit-leak"
        ~detail:(Printf.sprintf "executor leaked %d per-host permit(s)" permits_leaked)
  | Probe.Migrate_start { batch; origins } ->
    (* A fresh transaction for this batch: record its origins; prior
       giveups for the VMs it moves no longer apply. *)
    let origins = List.filter (fun (vm, _) -> watched t vm) origins in
    List.iter (fun (vm, _) -> Hashtbl.remove t.gave_up vm) origins;
    Hashtbl.replace t.origins batch origins
  | Probe.Migrate_giveup { vm; _ } -> Hashtbl.replace t.gave_up vm ()
  | Probe.Migration_pull { vm; dup_pages; remaining; _ } when watched t vm ->
    if dup_pages <> 0 then
      record_at t ~at ~invariant:"no-double-resident"
        ~detail:
          (Printf.sprintf "%s: a pull re-claimed %d already-resident page(s)" vm dup_pages);
    (match Hashtbl.find_opt t.pull_remaining vm with
    | Some prev when remaining >= prev ->
      record_at t ~at ~invariant:"pull-monotone"
        ~detail:
          (Printf.sprintf
             "%s: pull left %.0f bytes remaining, not below the previous %.0f — the \
              drain is not making progress"
             vm remaining prev)
    | _ -> ());
    Hashtbl.replace t.pull_remaining vm remaining
  | Probe.Migration_lost { vm; _ } when watched t vm ->
    Hashtbl.replace t.lost vm ();
    Hashtbl.remove t.pull_remaining vm
  | Probe.Migration_done { vm; _ } -> Hashtbl.remove t.pull_remaining vm
  | Probe.Migrate_rollback { batch; _ } ->
    List.iter
      (fun (name, origin) ->
        (* A lost VM is exempt from restore-to-source — there is nothing
           left to restore; {!check_finish} asserts it ends paused. *)
        if (not (excused t name)) && not (Hashtbl.mem t.lost name) then
          let vm = Hashtbl.find t.vms name in
          let here = (Vm.host vm).Node.name in
          if here <> origin then
            record_at t ~at ~invariant:"rollback-restore"
              ~detail:
                (Printf.sprintf "%s rolled back to %s but its origin is %s" name here
                   origin))
      (Option.value (Hashtbl.find_opt t.origins batch) ~default:[])
  | _ -> ()

let install cluster ~vms =
  let t =
    {
      cluster;
      vms = Hashtbl.create 8;
      rev_violations = [];
      last_at = Sim.now (Cluster.sim cluster);
      fenced = Hashtbl.create 8;
      active_fences = Hashtbl.create 8;
      attached = Hashtbl.create 8;
      gave_up = Hashtbl.create 8;
      lost = Hashtbl.create 8;
      pull_remaining = Hashtbl.create 8;
      origins = Hashtbl.create 8;
      spans = Recorder.create ();
      feed = Fabric.reader (Cluster.fabric cluster);
      over = [];
      events = 0;
      sub = None;
    }
  in
  List.iter
    (fun vm ->
      Hashtbl.replace t.vms (Vm.name vm) vm;
      Hashtbl.replace t.attached (Vm.name vm)
        (ref (List.map (fun (d : Device.t) -> d.Device.tag) (Vm.devices vm))))
    vms;
  t.sub <- Some (Probe.attach (Cluster.probes cluster) (on_event t));
  t

let detach t =
  match t.sub with
  | None -> ()
  | Some sub ->
    Probe.detach (Cluster.probes t.cluster) sub;
    Fabric.release t.feed;
    t.sub <- None

let with_checker cluster ~vms f =
  let t = install cluster ~vms in
  Fun.protect ~finally:(fun () -> detach t) (fun () -> f t)

let check_finish t =
  (* Span audit: every tree reassembled from the bus must be closed and
     properly nested once the run is over — an open phase span here means
     an emitter aborted without unwinding, and a begin/end mismatch means
     an emitter's begins and ends do not pair. *)
  List.iter
    (fun root ->
      List.iter
        (fun problem ->
          record t ~invariant:"span-well-formed"
            ~detail:
              (Printf.sprintf "span tree %s (thread %s): %s" root.Span.name
                 root.Span.thread problem))
        (Span.well_formed root))
    (Recorder.roots t.spans);
  List.iter
    (fun a -> record t ~invariant:"span-well-formed" ~detail:a)
    (Recorder.anomalies t.spans);
  if Hashtbl.length t.active_fences > 0 then
    record t ~invariant:"fence-pairing"
      ~detail:"a SymVirt fence is still held at the end of the run";
  Hashtbl.iter
    (fun name vm ->
      let host = Vm.host vm in
      (* Mode-aware terminal states. A lost VM (committed postcopy
         switchover whose source died) must be frozen: running it would
         execute over missing pages. A VM that is NOT lost must have
         finished any postcopy drain it started — silently running with
         pages still at the source is the failure postcopy's [Lost]
         accounting exists to make loud. *)
      if Vm.is_lost vm || Hashtbl.mem t.lost name then begin
        if Vm.state vm = Vm.Running then
          record t ~invariant:"postcopy-lost"
            ~detail:
              (Printf.sprintf "%s was lost mid-postcopy but is still running on %s" name
                 host.Node.name);
        if Vm.is_lost vm && not (Hashtbl.mem t.lost name) then
          record t ~invariant:"postcopy-lost"
            ~detail:
              (Printf.sprintf "%s is marked lost but no migration/lost event reported it"
                 name)
      end
      else begin
        let mem = Vm.memory vm in
        if Memory.postcopy_active mem && Memory.remote_bytes mem > 0.0 then
          record t ~invariant:"postcopy-complete"
            ~detail:
              (Printf.sprintf
                 "%s ends the run with %.0f bytes still at its postcopy source" name
                 (Memory.remote_bytes mem))
        else (
          match Hashtbl.find_opt t.pull_remaining name with
          | Some r when r > 0.0 ->
            record t ~invariant:"postcopy-complete"
              ~detail:
                (Printf.sprintf
                   "%s's pull stream last reported %.0f bytes remaining and never \
                    finished"
                   name r)
          | _ -> ());
        if Vm.state vm <> Vm.Running then
          record t ~invariant:"vm-running"
            ~detail:(Printf.sprintf "%s is still paused at the end of the run" name);
        if not (Cluster.node_alive t.cluster host) then begin
          if not (excused t name) then
            record t ~invariant:"vm-on-live-host"
              ~detail:(Printf.sprintf "%s ends on dead node %s" name host.Node.name)
        end
        else if not (excused t name) then begin
          if Node.has_ib host && Vm.find_device vm ~tag:Device.hca_tag = None then
            record t ~invariant:"device-consistency"
              ~detail:
                (Printf.sprintf "%s on IB node %s without its HCA" name host.Node.name);
          if (not (Node.has_ib host)) && Vm.has_bypass_device vm then
            record t ~invariant:"device-consistency"
              ~detail:
                (Printf.sprintf "%s on Ethernet node %s with a bypass device attached"
                   name host.Node.name)
        end
      end)
    t.vms;
  (* Destination overcommit: the watched VMs resident on any one node must
     fit in its memory — the planner's swap-cycle staging exists precisely
     to never leave a host oversubscribed. *)
  let resident = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ vm ->
      let host = Vm.host vm in
      let prev = Option.value (Hashtbl.find_opt resident host.Node.name) ~default:0.0 in
      Hashtbl.replace resident host.Node.name
        (prev +. Memory.total_bytes (Vm.memory vm)))
    t.vms;
  Hashtbl.iter
    (fun node_name bytes ->
      let node = Cluster.find_node t.cluster node_name in
      if bytes > node.Node.mem_bytes *. (1.0 +. 1e-9) then
        record t ~invariant:"host-overcommit"
          ~detail:
            (Printf.sprintf "%s holds %.1f GB of VMs but has %.1f GB" node_name
               (bytes /. 1e9) (node.Node.mem_bytes /. 1e9)))
    resident
