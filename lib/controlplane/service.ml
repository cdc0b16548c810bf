open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_planner
open Ninja_telemetry

type tenant_spec = {
  name : string;
  weight : float;
  vms : Vm.t list;
  traffic : Cost_model.traffic;
}

type swap_pricing = Declared | Learned

let swap_pricing_of_string = function
  | "declared" -> Ok Declared
  | "learned" -> Ok Learned
  | s -> Error (Printf.sprintf "unknown swap pricing %S (expected declared|learned)" s)

type config = {
  strategy : Solver.t;
  mode : Migration.mode;
  max_inflight : int;
  queue_cap : int;
  max_defers : int;
  auto_swap : swap_pricing option;
  learned_traffic : (unit -> Cost_model.traffic) option;
}

let default_config =
  {
    strategy = Solver.default;
    mode = Migration.Precopy;
    max_inflight = 2;
    queue_cap = 8;
    max_defers = 25;
    auto_swap = None;
    learned_traffic = None;
  }

(* Dispatch attempts per request before it is Failed. *)
let max_attempts = 3

type reject_reason = Unknown_tenant | Queue_full
type drop_reason = Deadline_missed | No_feasible_placement
type outcome = Completed | Rejected of reject_reason | Dropped of drop_reason | Failed of string

let reject_reason_name = function Unknown_tenant -> "unknown-tenant" | Queue_full -> "queue-full"

let drop_reason_name = function
  | Deadline_missed -> "deadline-missed"
  | No_feasible_placement -> "no-feasible-placement"

let outcome_name = function
  | Completed -> "completed"
  | Rejected r -> "rejected:" ^ reject_reason_name r
  | Dropped r -> "dropped:" ^ drop_reason_name r
  | Failed _ -> "failed"

type t = {
  cluster : Cluster.t;
  sim : Sim.t;
  probes : Probe.t;
  cfg : config;
  tenants : tenant_spec list;
  all_vms : Vm.t list;  (* name-sorted *)
  traffic : Cost_model.traffic;  (* all tenants' matrices, concatenated *)
  queue : Request.t Fair_queue.t;
  locks : Locks.t;
  m : Metrics.t;
  prng : Prng.t;  (* the service's own stream: traffic mix and arrivals *)
  wake : Semaphore.t;  (* the dispatcher's condition variable *)
  blocked : (int, int) Hashtbl.t;  (* request id -> epoch when deferred *)
  mutable next_id : int;
  mutable next_batch : int;
  mutable inflight : int;
  mutable feeders : int;
  mutable epoch : int;  (* bumped whenever a batch settles *)
  mutable swap_pending : bool;  (* an auto-proposed swap is queued or in flight *)
  mutable submitted_n : int;
  mutable rev_done : (Request.t * outcome) list;
  mutable rev_log : string list;
}

let vms t = t.all_vms

let metrics t = t.m

let submitted t = t.submitted_n

let outcomes t = List.rev t.rev_done

let log t = List.rev t.rev_log

let count_of t name = Option.value (Metrics.value t.m name) ~default:0.0

let quiesced t = t.feeders = 0 && Fair_queue.is_empty t.queue && t.inflight = 0

let accounting t =
  let finished = List.length t.rev_done in
  let queued = Fair_queue.length t.queue in
  if t.submitted_n = finished && queued = 0 && t.inflight = 0 then Ok ()
  else
    Error
      (Printf.sprintf "submitted %d but finished %d (%d queued, %d in flight)"
         t.submitted_n finished queued t.inflight)

let logf t fmt =
  Printf.ksprintf
    (fun line ->
      t.rev_log <-
        Printf.sprintf "[%10.1f] %s" (Time.to_sec_f (Sim.now t.sim)) line :: t.rev_log)
    fmt

(* Every registry update is mirrored as a [Stat] probe so an attached
   telemetry recorder exports the same numbers. *)
let count ?(by = 1.0) t name =
  Metrics.incr t.m ~by name;
  Probe.emit t.probes (Probe.Stat { name; kind = Probe.Counter; value = by })

let gauge t name value =
  Metrics.gauge t.m name value;
  Probe.emit t.probes (Probe.Stat { name; kind = Probe.Gauge; value })

let observe t name value =
  Metrics.observe t.m name value;
  Probe.emit t.probes (Probe.Stat { name; kind = Probe.Histogram; value })

let latency_percentiles t =
  match Metrics.samples t.m "ctl.request.latency.seconds" with
  | [] -> None
  | samples ->
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let p q = Ninja_metrics.Stats.percentile_sorted q a in
    Some (p 50.0, p 95.0, p 99.0)

(* {1 Cluster views} *)

let by_node_id (a : Node.t) (b : Node.t) = compare a.Node.id b.Node.id

let avail t =
  Cluster.alive_nodes t.cluster
  |> List.filter (fun (n : Node.t) -> Locks.host_free t.locks n.Node.id)
  |> List.sort by_node_id

let vm_bytes vm = Memory.total_bytes (Vm.memory vm)

let resident_bytes t (n : Node.t) =
  List.fold_left
    (fun acc vm -> if (Vm.host vm).Node.id = n.Node.id then acc +. vm_bytes vm else acc)
    0.0 t.all_vms

let load_bytes t n = resident_bytes t n +. Locks.reserved_bytes t.locks n.Node.id

let staging_nodes t = List.filter (fun n -> resident_bytes t n = 0.0) (avail t)

let tenant_vms t name =
  match List.find_opt (fun ts -> String.equal ts.name name) t.tenants with
  | Some ts -> ts.vms
  | None -> []

(* {1 Placement} *)

type planned = Noop | Blocked of string | Assignment of (Vm.t * Node.t) list

let acceptable_node (r : Request.t) (n : Node.t) =
  match r.Request.kind with
  | Request.Evacuate { node } -> n.Node.name <> node
  | Request.Failover { rack } -> n.Node.rack <> rack
  | Request.Fallback -> not (Node.has_ib n)
  | Request.Return -> Node.has_ib n
  | Request.Rebalance -> true
  | Request.Swap _ -> true (* the reroute pins the fabric class per step *)

let by_vm_name a b = compare (Vm.name a) (Vm.name b)

(* A destination exchange is its own little plan: no packing, just the
   two VMs aimed at each other's hosts ({!Ninja_planner.Plan.of_assignment}
   turns the 2-cycle into a staged chain or a counted overcommit). Tenants
   swap among their own VMs; [ops] may swap across tenants. Exchanges
   never cross fabric classes — the device plan for each VM was computed
   for its host's interconnect. *)
let plan_swap t (r : Request.t) ~vm_a ~vm_b =
  let pool =
    if String.equal r.Request.tenant "ops" then t.all_vms
    else tenant_vms t r.Request.tenant
  in
  let find nm = List.find_opt (fun vm -> String.equal (Vm.name vm) nm) pool in
  match (find vm_a, find vm_b) with
  | Some a, Some b ->
    let ha = Vm.host a and hb = Vm.host b in
    if Vm.is_lost a || Vm.is_lost b then Blocked "vm-lost"
    else if ha.Node.id = hb.Node.id then Noop
    else if
      not (Cluster.node_alive t.cluster ha && Cluster.node_alive t.cluster hb)
    then Blocked "host-dead"
    else if Node.has_ib ha <> Node.has_ib hb then Blocked "fabric-class"
    else if not (Locks.vm_free t.locks vm_a && Locks.vm_free t.locks vm_b) then
      Blocked "vm-locked"
    else if
      not (Locks.host_free t.locks ha.Node.id && Locks.host_free t.locks hb.Node.id)
    then Blocked "host-locked"
    else Assignment [ (a, hb); (b, ha) ]
  | _ -> Noop

let plan_request t (r : Request.t) =
  match r.Request.kind with
  | Request.Swap { vm_a; vm_b } -> plan_swap t r ~vm_a ~vm_b
  | _ ->
  let mine = tenant_vms t r.Request.tenant in
  let movers =
    match r.Request.kind with
    | Request.Swap _ -> assert false
    | Request.Evacuate { node } ->
      List.filter (fun vm -> (Vm.host vm).Node.name = node) t.all_vms
    | Request.Failover { rack } ->
      List.filter (fun vm -> (Vm.host vm).Node.rack = rack) t.all_vms
    | Request.Fallback -> List.filter (fun vm -> Node.has_ib (Vm.host vm)) mine
    | Request.Return -> List.filter (fun vm -> not (Node.has_ib (Vm.host vm))) mine
    | Request.Rebalance ->
      (* Keep the first co-located VM of each pile, move the rest. *)
      let by_host = Hashtbl.create 8 in
      List.iter
        (fun vm ->
          let id = (Vm.host vm).Node.id in
          Hashtbl.replace by_host id
            (vm :: Option.value (Hashtbl.find_opt by_host id) ~default:[]))
        mine;
      Hashtbl.fold
        (fun _ piled acc ->
          match List.sort by_vm_name piled with
          | [] | [ _ ] -> acc
          | _keep :: rest -> rest @ acc)
        by_host []
      |> List.sort by_vm_name
  in
  (* A rebalance also spreads onto nodes this tenant does not occupy. *)
  let occupied =
    match r.Request.kind with
    | Request.Rebalance -> List.map (fun vm -> (Vm.host vm).Node.id) mine
    | _ -> []
  in
  let candidates =
    List.filter
      (fun (n : Node.t) -> acceptable_node r n && not (List.mem n.Node.id occupied))
      (avail t)
  in
  (* A VM lost to a committed postcopy switchover is unmovable forever. *)
  match List.filter (fun vm -> not (Vm.is_lost vm)) movers with
  | [] -> Noop
  | movers ->
    if List.exists (fun vm -> not (Locks.vm_free t.locks (Vm.name vm))) movers then
      Blocked "vm-locked"
    else (
      match
        Ninja_scheduler.Placement.pack_least_loaded ~vms:movers
          ~candidates:(fun _ -> candidates)
          ~load_bytes:(load_bytes t) ~bytes_of:vm_bytes ()
      with
      | Error e -> Blocked e
      | Ok assignment -> Assignment assignment)

(* {1 Request bookkeeping} *)

let thread_of (r : Request.t) = Printf.sprintf "req-%03d" r.Request.id

let note_queued t (r : Request.t) =
  if Probe.active t.probes then
    Probe.emit t.probes
      (Probe.Span_note
         { name = "queued"; cat = "ctl"; proc = "controlplane"; thread = thread_of r;
           start = r.Request.submitted;
           args = [ ("tenant", r.Request.tenant); ("kind", Request.kind_name r.Request.kind) ] })

let finish t (r : Request.t) outcome =
  Hashtbl.remove t.blocked r.Request.id;
  (match r.Request.kind with Request.Swap _ -> t.swap_pending <- false | _ -> ());
  t.rev_done <- (r, outcome) :: t.rev_done;
  let latency = Time.to_sec_f (Time.diff (Sim.now t.sim) r.Request.submitted) in
  (match outcome with
  | Completed ->
    count t "ctl.requests.completed";
    observe t "ctl.request.latency.seconds" latency
  | Rejected reason ->
    count t "ctl.requests.rejected";
    count t ("ctl.rejected." ^ reject_reason_name reason)
  | Dropped reason ->
    count t "ctl.requests.dropped";
    count t ("ctl.dropped." ^ drop_reason_name reason)
  | Failed _ -> count t "ctl.requests.failed");
  (* Announce the terminal outcome with its tenant so live monitors
     (Flowmon's SLO burn-rate and per-tenant attainment) can attribute
     it — the registry counters above carry no tenant dimension. *)
  if Probe.active t.probes then
    Probe.emit t.probes
      (Probe.Request_done
         { tenant = r.Request.tenant; outcome = outcome_name outcome;
           kind = Request.kind_name r.Request.kind;
           missed = (match outcome with Dropped Deadline_missed -> true | _ -> false);
           completed = (match outcome with Completed -> true | _ -> false); latency });
  logf t "req#%d %s after %.1fs" r.Request.id (outcome_name outcome) latency

(* {1 Batch execution} *)

let give_up t vm =
  Probe.emit t.probes (Probe.Migrate_giveup { vm = Vm.name vm; phase = "" });
  count t "ctl.vms.stranded"

(* Restore each VM to its origin; a VM whose current or origin host is
   dead cannot be restored and is excused instead, exactly like
   [Ninja.migrate]'s rollback. A VM lost mid-postcopy has no restorable
   state anywhere — rollback-to-source is impossible by construction, so
   it is only counted. *)
let roll_back t origins =
  List.iter
    (fun (vm, (origin : Node.t)) ->
      let here = Vm.host vm in
      if Vm.is_lost vm then count t "ctl.vms.lost"
      else if here.Node.id <> origin.Node.id then begin
        if
          (not (Cluster.node_alive t.cluster here))
          || not (Cluster.node_alive t.cluster origin)
        then give_up t vm
        else
          match
            Retry.run (fun ~attempt:_ ->
                ignore (Migration.migrate vm ~dst:origin ()))
          with
          | (), _ -> ()
          | exception _ -> give_up t vm
      end
      else if not (Cluster.node_alive t.cluster here) then give_up t vm)
    origins

let reroute t (r : Request.t) claim (step : Plan.step) =
  let vm = step.Plan.vm in
  (* Once a postcopy switchover commits, the VM runs at the destination
     with pages still in flight — there is no coherent state to aim at a
     third node, and a lost VM has nothing left to move at all. *)
  if Vm.switchover_committed vm || Vm.is_lost vm then None
  else
  let need = vm_bytes vm in
  let here = Vm.host vm in
  Cluster.alive_nodes t.cluster
  |> List.filter (fun (n : Node.t) ->
         n.Node.id <> here.Node.id
         && acceptable_node r n
         && (match r.Request.kind with
            | Request.Swap _ -> Node.has_ib n = Node.has_ib step.Plan.dst
            | _ -> true)
         && Locks.host_free t.locks ~batch:(Locks.batch claim) n.Node.id
         && load_bytes t n +. need <= n.Node.mem_bytes *. (1.0 +. 1e-9))
  |> List.sort (fun a b ->
         match Float.compare (load_bytes t a) (load_bytes t b) with
         | 0 -> by_node_id a b
         | c -> c)
  |> function
  | [] -> None
  | n :: _ ->
    Locks.extend t.locks claim ~host:n.Node.id ~bytes:need;
    Some n

type batch_end = Batch_done of Executor.report | Batch_failed of string

let execute_batch t (r : Request.t) claim plan =
  let bid = Printf.sprintf "batch-%d" (Locks.batch claim) in
  let moving =
    Plan.steps plan |> List.map (fun (s : Plan.step) -> s.Plan.vm) |> List.sort_uniq compare
  in
  let origins = List.map (fun vm -> (vm, Vm.host vm)) moving in
  let origin_names () =
    List.map (fun (vm, (h : Node.t)) -> (Vm.name vm, h.Node.name)) origins
  in
  if Probe.active t.probes then begin
    Probe.emit t.probes
      (Probe.Span_begin
         { name = "execute"; cat = "ctl"; proc = "controlplane"; thread = thread_of r;
           args =
             [ ("batch", bid); ("steps", string_of_int (Plan.length plan));
               ("tenant", r.Request.tenant); ("kind", Request.kind_name r.Request.kind) ] });
    Probe.emit t.probes (Probe.Migrate_start { batch = bid; origins = origin_names () })
  end;
  (* The batch's own fence: quiesce, shed bypass devices, move. *)
  List.iter Vm.pause moving;
  let vm_names = if Probe.active t.probes then List.map Vm.name moving else [] in
  let entered = Sim.now t.sim in
  Probe.emit t.probes (Probe.Fence_enter { id = bid; vms = vm_names });
  List.iter
    (fun vm ->
      List.iter
        (fun (d : Device.t) ->
          if Device.is_bypass d.Device.kind then
            ignore (Vm.detach_device vm ~tag:d.Device.tag))
        (Vm.devices vm))
    moving;
  let solved = Solver.solve t.cfg.strategy t.cluster ~traffic:t.traffic plan in
  let result =
    match
      Executor.run t.cluster ~mode:r.Request.mode ~reroute:(reroute t r claim) solved
    with
    | report ->
      (* A destination that died after receiving VMs leaves them stranded
         even though every step "succeeded": treat that as a failed batch
         so the request is re-tried rather than silently degraded. *)
      if
        List.exists
          (fun vm ->
            (not (Vm.is_lost vm))
            && not (Cluster.node_alive t.cluster (Vm.host vm)))
          moving
      then Batch_failed "destination died after arrival"
      else if List.exists Vm.is_lost moving then
        Batch_failed "postcopy source died mid-drain"
      else Batch_done report
    | exception Executor.Step_failed { step_id; vm; dst; reason } ->
      Batch_failed (Printf.sprintf "step %d (%s -> %s): %s" step_id vm dst reason)
  in
  (match result with Batch_failed _ -> roll_back t origins | Batch_done _ -> ());
  (* Fence release: restore the device posture for wherever each VM ended
     up, then resume. Lost VMs stay frozen — running one would execute
     over pages that died with the source. *)
  List.iter
    (fun vm ->
      let h = Vm.host vm in
      if
        (not (Vm.is_lost vm))
        && Cluster.node_alive t.cluster h
        && Node.has_ib h
        && Vm.find_device vm ~tag:Device.hca_tag = None
      then Vm.attach_device vm (Device.hca ()))
    moving;
  List.iter (fun vm -> if not (Vm.is_lost vm) then Vm.resume vm) moving;
  Probe.emit t.probes (Probe.Fence_release { id = bid; vms = vm_names });
  let resident = Time.to_sec_f (Time.diff (Sim.now t.sim) entered) in
  List.iter (fun _ -> observe t "ctl.vm.downtime.seconds" resident) moving;
  (match result with
  | Batch_done report ->
    Probe.emit t.probes (Probe.Migrate_complete { batch = bid });
    observe t "ctl.batch.makespan.seconds" (Time.to_sec_f report.Executor.makespan);
    count t ~by:report.Executor.total_wire_bytes "ctl.batch.wire.bytes";
    (match r.Request.kind with
    | Request.Swap _ -> count t "ctl.swap.applied"
    | _ -> ());
    if report.Executor.retries > 0 then
      count t ~by:(float_of_int report.Executor.retries) "ctl.batch.retries";
    logf t "req#%d batch %s done: %d steps in %.1fs" r.Request.id bid
      (Plan.length plan)
      (Time.to_sec_f report.Executor.makespan)
  | Batch_failed reason ->
    if Probe.active t.probes then
      Probe.emit t.probes
        (Probe.Migrate_rollback
           { batch = bid; origins = origin_names (); reason = ""; lost = [] });
    count t "ctl.batches.rolled_back";
    (match r.Request.kind with
    | Request.Swap _ -> count t "ctl.swap.rolled_back"
    | _ -> ());
    logf t "req#%d batch %s rolled back: %s" r.Request.id bid reason);
  if Probe.active t.probes then
    Probe.emit t.probes
      (Probe.Span_end
         { name = "execute"; proc = "controlplane"; thread = thread_of r;
           args =
             [ ("outcome",
                match result with Batch_done _ -> "done" | Batch_failed _ -> "rolled-back") ] });
  Locks.release t.locks claim;
  t.inflight <- t.inflight - 1;
  t.epoch <- t.epoch + 1;
  (match result with
  | Batch_done _ -> finish t r Completed
  | Batch_failed reason ->
    r.Request.attempts <- r.Request.attempts + 1;
    if r.Request.attempts >= max_attempts then finish t r (Failed reason)
    else begin
      Fair_queue.push t.queue ~tenant:r.Request.tenant r;
      count t "ctl.requests.requeued";
      logf t "req#%d requeued (attempt %d/%d)" r.Request.id
        (r.Request.attempts + 1) max_attempts
    end);
  Semaphore.release t.wake

(* {1 Dispatch} *)

let defer t tenant (r : Request.t) reason =
  if r.Request.defers >= t.cfg.max_defers then begin
    note_queued t r;
    finish t r (Dropped No_feasible_placement)
  end
  else begin
    r.Request.defers <- r.Request.defers + 1;
    Hashtbl.replace t.blocked r.Request.id t.epoch;
    Fair_queue.push_front t.queue ~tenant r;
    count t "ctl.requests.deferred";
    logf t "req#%d deferred (%s, %d/%d)" r.Request.id reason r.Request.defers
      t.cfg.max_defers
  end

let try_dispatch t tenant (r : Request.t) =
  if Request.expired r ~now:(Sim.now t.sim) then begin
    note_queued t r;
    count t "ctl.requests.expired";
    finish t r (Dropped Deadline_missed)
  end
  else
    match plan_request t r with
    | Noop ->
      note_queued t r;
      count t "ctl.requests.noop";
      finish t r Completed
    | Blocked reason -> defer t tenant r reason
    | Assignment assignment -> (
      let movers = List.map fst assignment in
      let dst_of vm = List.assq vm assignment in
      let plan =
        Plan.of_assignment t.cluster ~vms:movers ~dst_of ~staging:(staging_nodes t) ()
      in
      if Plan.length plan = 0 then begin
        note_queued t r;
        count t "ctl.requests.noop";
        finish t r Completed
      end
      else
        let hosts =
          List.map (fun (n : Node.t) -> n.Node.id) (Plan.nodes_touched plan)
        in
        let reserved =
          List.map
            (fun (s : Plan.step) -> (s.Plan.dst.Node.id, vm_bytes s.Plan.vm))
            (Plan.steps plan)
        in
        let names =
          List.sort_uniq compare
            (List.map (fun (s : Plan.step) -> Vm.name s.Plan.vm) (Plan.steps plan))
        in
        match
          Locks.try_claim t.locks ~batch:t.next_batch ~vms:names ~hosts ~reserved
        with
        | None -> defer t tenant r "footprint-locked"
        | Some claim ->
          t.next_batch <- t.next_batch + 1;
          t.inflight <- t.inflight + 1;
          gauge t "ctl.inflight.max" (float_of_int t.inflight);
          Fair_queue.charge t.queue ~tenant (float_of_int (Plan.length plan));
          note_queued t r;
          observe t "ctl.request.queue_wait.seconds"
            (Time.to_sec_f (Time.diff (Sim.now t.sim) r.Request.submitted));
          count t "ctl.requests.dispatched";
          logf t "req#%d dispatch batch-%d: %d steps, %d hosts" r.Request.id
            (Locks.batch claim) (Plan.length plan) (List.length hosts);
          Sim.spawn t.sim
            ~name:(Printf.sprintf "ctl-batch-%d" (Locks.batch claim))
            (fun () -> execute_batch t r claim plan))

let rec dispatch_ready t =
  if t.inflight < t.cfg.max_inflight then begin
    let order =
      Fair_queue.heads t.queue
      |> List.sort (fun (n1, v1, r1) (n2, v2, r2) ->
             match
               compare
                 (Request.priority_rank r2.Request.priority)
                 (Request.priority_rank r1.Request.priority)
             with
             | 0 -> ( match Float.compare v1 v2 with 0 -> compare n1 n2 | c -> c)
             | c -> c)
    in
    match
      List.find_opt
        (fun (_, _, r) -> Hashtbl.find_opt t.blocked r.Request.id <> Some t.epoch)
        order
    with
    | Some (tenant, _, r) ->
      ignore (Fair_queue.pop t.queue ~tenant);
      try_dispatch t tenant r;
      dispatch_ready t
    | None -> (
      (* Every head is deferred at the current epoch. With work in flight
         (or feeders still arriving) a later completion re-opens them; with
         neither, nothing will ever change placement state, so drop the
         first stuck head to keep the queue draining. *)
      match order with
      | (tenant, _, r) :: _ when t.inflight = 0 && t.feeders = 0 ->
        ignore (Fair_queue.pop t.queue ~tenant);
        note_queued t r;
        finish t r (Dropped No_feasible_placement);
        dispatch_ready t
      | _ -> ())
  end

(* {1 Feeding} *)

let make t ~tenant ~kind ?(priority = Request.Normal) ?deadline () =
  let id = t.next_id in
  t.next_id <- id + 1;
  {
    Request.id;
    tenant;
    kind;
    mode = t.cfg.mode;
    priority;
    deadline;
    submitted = Sim.now t.sim;
    attempts = 0;
    defers = 0;
  }

let submit t (r : Request.t) =
  t.submitted_n <- t.submitted_n + 1;
  count t "ctl.requests.submitted";
  logf t "req#%d %s %s prio=%s submit" r.Request.id r.Request.tenant
    (Request.describe r)
    (Request.priority_name r.Request.priority);
  if not (List.mem r.Request.tenant (Fair_queue.tenants t.queue)) then
    finish t r (Rejected Unknown_tenant)
  else if Fair_queue.depth t.queue ~tenant:r.Request.tenant >= t.cfg.queue_cap then
    finish t r (Rejected Queue_full)
  else begin
    Fair_queue.push t.queue ~tenant:r.Request.tenant r;
    count t "ctl.requests.admitted";
    let depth = float_of_int (Fair_queue.length t.queue) in
    gauge t "ctl.queue.depth.max" depth;
    observe t "ctl.queue.depth" depth;
    Semaphore.release t.wake
  end

(* {1 The online destination-swap policy (Avin et al., arXiv:1309.5826)}

   Priced by the planner's [Swap_price], the kernel the batch [swap]
   strategy climbs with: exchanging the hosts of two VMs is worth
   proposing when the tenant-communication saving, amortised over the
   cost model's horizon, exceeds the two migrations it costs. Every
   managed VM is a mover at its current host, so staying costs nothing. *)

(* The matrix swap proposals are priced against: the declared tenant
   matrices by default, or whatever the learned-traffic hook currently
   estimates under [Learned] pricing (falling back to declared while the
   monitor is still warming up and has nothing to report). *)
let pricing_traffic t =
  match t.cfg.auto_swap with
  | Some Learned -> (
    match t.cfg.learned_traffic with
    | Some learn -> ( match learn () with [] -> t.traffic | m -> m)
    | None -> t.traffic)
  | Some Declared | None -> t.traffic

let propose_swap t =
  let traffic = pricing_traffic t in
  if traffic = [] then false
  else begin
    let vms = Array.of_list t.all_vms in
    let prices =
      Swap_price.make
        (Cost_model.env t.cluster ~traffic ())
        ~place:(fun name -> Cluster.vm_node t.cluster ~name)
        (Array.map
           (fun vm -> { Swap_price.vm; src = Vm.host vm; host = Vm.host vm; bytes = None })
           vms)
    in
    (* A VM is movable when it is not lost, its host is alive and it is
       unlocked. *)
    let movable i =
      let vm = vms.(i) in
      (not (Vm.is_lost vm))
      && Cluster.node_alive t.cluster (Vm.host vm)
      && Locks.vm_free t.locks (Vm.name vm)
    in
    match Swap_price.best prices ~movable with
    | None ->
      count t "ctl.swap.noop";
      false
    | Some (i, j, gain) ->
      let a = vms.(i) and b = vms.(j) in
      let tenant_of vm =
        List.find_opt (fun ts -> List.exists (fun v -> v == vm) ts.vms) t.tenants
      in
      let tenant =
        match (tenant_of a, tenant_of b) with
        | Some ta, Some tb when String.equal ta.name tb.name -> ta.name
        | _ -> "ops"
      in
      let r =
        make t ~tenant
          ~kind:(Request.Swap { vm_a = Vm.name a; vm_b = Vm.name b })
          ~priority:Request.Low ()
      in
      (* Set before [submit]: an admission rejection finishes the request
         synchronously, which clears the flag again. *)
      t.swap_pending <- true;
      count t "ctl.swap.proposed";
      gauge t "ctl.swap.gain" gain;
      logf t "swap proposal %s<->%s (gain %.3f)" (Vm.name a) (Vm.name b) gain;
      submit t r;
      true
  end

let rec dispatcher t =
  if t.cfg.auto_swap <> None && not t.swap_pending then ignore (propose_swap t);
  dispatch_ready t;
  if not (quiesced t) then begin
    Semaphore.acquire t.wake;
    dispatcher t
  end

let random_request t =
  let user = List.filter (fun ts -> ts.vms <> []) t.tenants in
  let pick_tenant () =
    match user with
    | [] -> "ops"
    | _ -> (List.nth user (Prng.int t.prng (List.length user))).name
  in
  let alive = List.sort by_node_id (Cluster.alive_nodes t.cluster) in
  let racks =
    List.sort_uniq compare
      (List.map (fun (n : Node.t) -> n.Node.rack) (Cluster.nodes t.cluster))
  in
  let x = Prng.float t.prng 1.0 in
  let tenant, kind =
    if x < 0.30 || alive = [] then (pick_tenant (), Request.Rebalance)
    else if x < 0.55 then (pick_tenant (), Request.Fallback)
    else if x < 0.80 then (pick_tenant (), Request.Return)
    else if x < 0.92 then
      let n = List.nth alive (Prng.int t.prng (List.length alive)) in
      ("ops", Request.Evacuate { node = n.Node.name })
    else
      let rack = List.nth racks (Prng.int t.prng (List.length racks)) in
      ("ops", Request.Failover { rack })
  in
  let priority =
    match kind with
    | Request.Failover _ -> Request.High
    | _ ->
      let p = Prng.float t.prng 1.0 in
      if p < 0.15 then Request.High
      else if p < 0.85 then Request.Normal
      else Request.Low
  in
  let deadline =
    if Prng.float t.prng 1.0 < 0.30 then Some (Time.sec (60 + Prng.int t.prng 540))
    else None
  in
  make t ~tenant ~kind ~priority ?deadline ()

let inject t ~after mk =
  t.feeders <- t.feeders + 1;
  Sim.spawn t.sim ~name:"ctl-inject" (fun () ->
      Sim.sleep after;
      submit t (mk t);
      t.feeders <- t.feeders - 1;
      Semaphore.release t.wake)

let open_loop t ~process ~horizon =
  (match Ninja_workloads.Arrivals.validate process with
  | Ok () -> ()
  | Error e -> invalid_arg ("Service.open_loop: " ^ e));
  t.feeders <- t.feeders + 1;
  Sim.spawn t.sim ~name:"ctl-arrivals" (fun () ->
      let start = Sim.now t.sim in
      List.iter
        (fun at ->
          let target = Time.add start (Time.of_sec_f at) in
          let gap = Time.diff target (Sim.now t.sim) in
          if not (Time.is_negative gap) then Sim.sleep gap;
          submit t (random_request t))
        (Ninja_workloads.Arrivals.times t.prng process ~horizon);
      t.feeders <- t.feeders - 1;
      Semaphore.release t.wake)

(* {1 Construction} *)

(* Round-robin first fit over the alive nodes in id order: each call
   takes the next node with room for one more VM of [mem_bytes]. *)
let first_fit cluster ~mem_bytes =
  let nodes = Array.of_list (List.sort by_node_id (Cluster.alive_nodes cluster)) in
  let k = Array.length nodes in
  let used = Array.make k 0.0 in
  let cursor = ref 0 in
  fun () ->
    let rec probe i =
      if i >= k then None
      else
        let j = (!cursor + i) mod k in
        if used.(j) +. mem_bytes <= nodes.(j).Node.mem_bytes *. (1.0 +. 1e-9) then begin
          cursor := (j + 1) mod k;
          used.(j) <- used.(j) +. mem_bytes;
          Some nodes.(j)
        end
        else probe (i + 1)
    in
    probe 0

let fits cluster ~vms ~mem_bytes =
  let next = first_fit cluster ~mem_bytes in
  List.for_all (fun _ -> next () <> None) (List.init vms Fun.id)

let boot_tenants ?traffic cluster ~tenants ~vms_per_tenant ~mem_bytes =
  let next = first_fit cluster ~mem_bytes in
  let place () =
    match next () with
    | Some n -> n
    | None -> failwith "Service.boot_tenants: cluster out of memory"
  in
  (* Split lazily: tenants without traffic must not perturb the sim's
     PRNG stream (existing seeds keep their draws). *)
  let traffic_prng =
    match traffic with
    | None -> None
    | Some _ -> Some (Prng.split (Sim.prng (Cluster.sim cluster)))
  in
  List.map
    (fun (name, weight) ->
      let vms =
        List.init vms_per_tenant (fun i ->
            let host = place () in
            let vm =
              Vm.create cluster
                ~name:(Printf.sprintf "%s-vm%d" name i)
                ~host ~vcpus:2 ~mem_bytes ()
            in
            if Node.has_ib host then Vm.attach_device vm (Device.hca ());
            vm)
      in
      let traffic =
        match (traffic, traffic_prng) with
        | Some pattern, Some prng ->
          Ninja_workloads.Traffic.matrix prng pattern ~vms:(List.map Vm.name vms)
        | _ -> []
      in
      { name; weight; vms; traffic })
    tenants

let create cluster ~config ~tenants () =
  let tenants =
    if List.exists (fun ts -> String.equal ts.name "ops") tenants then tenants
    else tenants @ [ { name = "ops"; weight = 4.0; vms = []; traffic = [] } ]
  in
  let queue = Fair_queue.create () in
  List.iter (fun ts -> Fair_queue.register queue ~name:ts.name ~weight:ts.weight) tenants;
  let sim = Cluster.sim cluster in
  let t =
    {
      cluster;
      sim;
      probes = Cluster.probes cluster;
      cfg = config;
      tenants;
      all_vms = List.sort by_vm_name (List.concat_map (fun ts -> ts.vms) tenants);
      traffic = List.concat_map (fun (ts : tenant_spec) -> ts.traffic) tenants;
      queue;
      locks = Locks.create ();
      m = Metrics.create ();
      prng = Prng.split (Sim.prng sim);
      wake = Semaphore.create 0;
      blocked = Hashtbl.create 16;
      next_id = 0;
      next_batch = 0;
      inflight = 0;
      feeders = 0;
      epoch = 0;
      swap_pending = false;
      submitted_n = 0;
      rev_done = [];
      rev_log = [];
    }
  in
  Sim.spawn sim ~name:"ctl-dispatcher" (fun () -> dispatcher t);
  t

let count = count_of
