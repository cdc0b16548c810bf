open Ninja_engine
open Ninja_flownet
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

(* The swap policy's inputs in one round, per managed VM: its host's id,
   why it cannot move (bit 0 lost, bit 1 on a dead host, bit 2 locked;
   0 when movable) and its non-zero, zero and dirty bytes. *)
type inputs = { hosts : int array; flags : Bytes.t; memory : Float.Array.t }

(* The swap policy's pricing state, kept from its first round until the
   dispatcher quiesces: a table whose pair costs the fabric reader keeps
   current, and the last no-op round's inputs. *)
type pricing = {
  reader : Fabric.reader option;  (* [None]: a table for one round *)
  table : Swap_price.t;
  now : inputs;
  last : inputs;
  mutable noop : Cost_model.traffic option;
      (* [last]'s matrix, while [last] holds a no-op round's inputs and no
         link has drained since; only a matrix among managed VMs, which
         reads no other VM's placement *)
}

type t = {
  cluster : Cluster.t;
  sim : Sim.t;
  probes : Probe.t;
  cfg : config;
  tenants : tenant_spec list;
  all_vms : Vm.t list;  (* name-sorted *)
  fleet : Vm.t array;  (* [all_vms] *)
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
  mutable swap_pairs : int;  (* pairs the swap policy has priced *)
  mutable swap_costs : int;  (* node-pair costs it has computed *)
  mutable pricing : pricing option;  (* taken at the first round *)
  mutable retired : bool;  (* the dispatcher has quiesced *)
  mutable submitted_n : int;
  mutable rev_done : (Request.t * outcome) list;
  mutable rev_log : string list;
}

let vms t = t.all_vms

let metrics t = t.m

let submitted t = t.submitted_n

let swap_pairs_priced t = t.swap_pairs

let swap_pair_costs t = t.swap_costs

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

(* Alive and unclaimed, in id order. *)
let avail t =
  List.filter
    (fun (n : Node.t) -> Locks.host_free t.locks n.Node.id)
    (Cluster.alive_nodes t.cluster)

let vm_bytes vm = Memory.total_bytes (Vm.memory vm)

(* Each host's resident bytes, indexed by [Node.id] (ids are array
   indices): one pass over the managed VMs in name order, so every host
   sums the same terms in the same order as folding the VM list for it
   alone would. A snapshot is valid until simulated time passes. *)
let resident t =
  let bytes = Array.make (Cluster.node_count t.cluster) 0.0 in
  List.iter
    (fun vm ->
      let id = (Vm.host vm).Node.id in
      bytes.(id) <- bytes.(id) +. vm_bytes vm)
    t.all_vms;
  bytes

(* Each host's load: its resident bytes plus the bytes in-flight batches
   have reserved on it. *)
let loads t resident =
  Array.mapi (fun id bytes -> bytes +. Locks.reserved_bytes t.locks id) resident

let staging_nodes t resident =
  List.filter (fun (n : Node.t) -> resident.(n.Node.id) = 0.0) (avail t)

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

let plan_request t resident (r : Request.t) =
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
  let occupied = Array.make (Cluster.node_count t.cluster) false in
  (match r.Request.kind with
  | Request.Rebalance -> List.iter (fun vm -> occupied.((Vm.host vm).Node.id) <- true) mine
  | _ -> ());
  let candidates =
    List.filter (fun (n : Node.t) -> acceptable_node r n && not occupied.(n.Node.id)) (avail t)
  in
  (* A VM lost to a committed postcopy switchover is unmovable forever. *)
  match List.filter (fun vm -> not (Vm.is_lost vm)) movers with
  | [] -> Noop
  | movers ->
    if List.exists (fun vm -> not (Locks.vm_free t.locks (Vm.name vm))) movers then
      Blocked "vm-locked"
    else (
      let load = loads t resident in
      match
        Ninja_scheduler.Placement.pack_least_loaded ~vms:movers
          ~candidates:(fun _ -> candidates)
          ~load_bytes:(fun (n : Node.t) -> load.(n.Node.id))
          ~bytes_of:vm_bytes ()
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
          | exception e when Retry.retryable e -> give_up t vm
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
  (* Mid-batch: VMs have moved since any earlier snapshot. *)
  let load = loads t (resident t) in
  Cluster.alive_nodes t.cluster
  |> List.filter (fun (n : Node.t) ->
         n.Node.id <> here.Node.id
         && acceptable_node r n
         && (match r.Request.kind with
            | Request.Swap _ -> Node.has_ib n = Node.has_ib step.Plan.dst
            | _ -> true)
         && Locks.host_free t.locks ~batch:(Locks.batch claim) n.Node.id)
  |> Ninja_scheduler.Placement.least_loaded ~load:(fun (n : Node.t) -> load.(n.Node.id)) ~need
  |> Option.map (fun (n : Node.t) ->
         Locks.extend t.locks claim ~host:n.Node.id ~bytes:need;
         n)

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
    (* No simulated time passes between planning and staging, so both
       read one snapshot. *)
    let resident = resident t in
    match plan_request t resident r with
    | Noop ->
      note_queued t r;
      count t "ctl.requests.noop";
      finish t r Completed
    | Blocked reason -> defer t tenant r reason
    | Assignment assignment -> (
      let movers = List.map fst assignment in
      let dst_of vm = List.assq vm assignment in
      let plan =
        Plan.of_assignment t.cluster ~vms:movers ~dst_of
          ~staging:(staging_nodes t resident) ()
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

let inputs n =
  { hosts = Array.make n 0; flags = Bytes.make n '\000'; memory = Float.Array.make (3 * n) 0.0 }

let read_inputs t (x : inputs) =
  Array.iteri
    (fun i vm ->
      let host = Vm.host vm in
      let memory = Vm.memory vm in
      x.hosts.(i) <- host.Node.id;
      Bytes.set x.flags i
        (Char.chr
           ((if Vm.is_lost vm then 1 else 0)
           lor (if Cluster.node_alive t.cluster host then 0 else 2)
           lor if Locks.vm_free t.locks (Vm.name vm) then 0 else 4));
      Float.Array.set x.memory (3 * i) (Memory.nonzero_bytes memory);
      Float.Array.set x.memory ((3 * i) + 1) (Memory.zero_bytes memory);
      Float.Array.set x.memory ((3 * i) + 2) (Memory.dirty_bytes memory))
    t.fleet

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_inputs (a : inputs) (b : inputs) =
  a.hosts = b.hosts
  && Bytes.equal a.flags b.flags
  && begin
    let same = ref true in
    Float.Array.iteri
      (fun i x -> if not (same_float x (Float.Array.get b.memory i)) then same := false)
      a.memory;
    !same
  end

let same_traffic a b =
  a == b
  || List.equal
       (fun (x, y, r) (x', y', r') -> String.equal x x' && String.equal y y' && same_float r r')
       a b

(* A round repeats the last no-op round when nothing it reads has changed
   since: no link drained (so every pair cost holds), the same matrix,
   and every VM's host, movability and memory counters as they were, so
   every move estimate holds too. Its scan would find nothing again. *)
let repeats p traffic ~drained =
  match p.noop with
  | Some last when not drained -> same_traffic traffic last && same_inputs p.now p.last
  | _ -> false

let pricing t =
  match t.pricing with
  | Some p -> p
  | None ->
    let n = Array.length t.fleet in
    let p =
      {
        reader = (if t.retired then None else Some (Fabric.reader (Cluster.fabric t.cluster)));
        table = Swap_price.create t.cluster;
        now = inputs n;
        last = inputs n;
        noop = None;
      }
    in
    if not t.retired then t.pricing <- Some p;
    p

(* Every managed VM a mover at its host, scanned against [traffic]. *)
let scan t table traffic (x : inputs) =
  Swap_price.load table
    (Cost_model.env t.cluster ~traffic ())
    ~place:(fun name -> Cluster.vm_node t.cluster ~name)
    (Array.map
       (fun vm -> { Swap_price.vm; src = Vm.host vm; host = Vm.host vm; bytes = None })
       t.fleet);
  Swap_price.best table ~movable:(fun i -> Bytes.get x.flags i = '\000')

let propose_swap t =
  let traffic = pricing_traffic t in
  if traffic = [] then false
  else begin
    let p = pricing t in
    let drained = match p.reader with Some r -> Swap_price.drain p.table r | None -> true in
    read_inputs t p.now;
    if repeats p traffic ~drained then begin
      count t "ctl.swap.noop";
      false
    end
    else begin
      let priced = Swap_price.priced p.table and costs = Swap_price.pair_costs p.table in
      let best = scan t p.table traffic p.now in
      t.swap_pairs <- t.swap_pairs + Swap_price.priced p.table - priced;
      t.swap_costs <- t.swap_costs + Swap_price.pair_costs p.table - costs;
      p.noop <- None;
      match best with
      | None ->
        if Swap_price.self_contained p.table then begin
          Array.blit p.now.hosts 0 p.last.hosts 0 (Array.length p.now.hosts);
          Bytes.blit p.now.flags 0 p.last.flags 0 (Bytes.length p.now.flags);
          Float.Array.blit p.now.memory 0 p.last.memory 0 (Float.Array.length p.now.memory);
          p.noop <- Some traffic
        end;
        count t "ctl.swap.noop";
        false
      | Some (i, j, gain) ->
        let a = t.fleet.(i) and b = t.fleet.(j) in
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
  end

let swap_reference t =
  match pricing_traffic t with
  | [] -> None
  | traffic ->
    let x = inputs (Array.length t.fleet) in
    read_inputs t x;
    Option.map
      (fun (i, j, gain) -> (Vm.name t.fleet.(i), Vm.name t.fleet.(j), gain))
      (scan t (Swap_price.create t.cluster) traffic x)

(* The dispatcher is done: its pricing state goes, reader and all. *)
let retire t =
  t.retired <- true;
  Option.iter (fun p -> Option.iter Fabric.release p.reader) t.pricing;
  t.pricing <- None

let rec dispatcher t =
  if t.cfg.auto_swap <> None && not t.swap_pending then ignore (propose_swap t);
  dispatch_ready t;
  if quiesced t then retire t
  else begin
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
  let alive = Cluster.alive_nodes t.cluster in
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
  let all_vms = List.sort by_vm_name (List.concat_map (fun ts -> ts.vms) tenants) in
  let t =
    {
      cluster;
      sim;
      probes = Cluster.probes cluster;
      cfg = config;
      tenants;
      all_vms;
      fleet = Array.of_list all_vms;
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
      swap_pairs = 0;
      swap_costs = 0;
      pricing = None;
      retired = false;
      submitted_n = 0;
      rev_done = [];
      rev_log = [];
    }
  in
  Sim.spawn sim ~name:"ctl-dispatcher" (fun () -> dispatcher t);
  t

let count = count_of
