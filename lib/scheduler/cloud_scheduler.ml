open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_metrics
open Ninja_core
open Ninja_planner

type trigger =
  | Maintenance of { avoid : Node.t -> bool }
  | Disaster of { rack : int }
  | Consolidate of { vms_per_host : int; targets : Node.t list }
  | Rebalance of { targets : Node.t list }

type record = {
  at : Time.t;
  trigger : trigger;
  breakdown : Breakdown.t;
  report : Executor.report option;
}

type t = {
  ninja : Ninja.t;
  sim : Sim.t;
  strategy : Solver.t;
  mode : Migration.mode;
  traffic : Cost_model.traffic;
  mutable records : record list;
}

let create ?(strategy = Solver.default) ?(mode = Migration.Precopy) ?(traffic = []) ninja =
  { ninja; sim = Cluster.sim (Ninja.cluster ninja); strategy; mode; traffic; records = [] }

let trigger_name = function
  | Maintenance _ -> "maintenance"
  | Disaster { rack } -> Printf.sprintf "disaster(rack%d)" rack
  | Consolidate { vms_per_host; _ } -> Printf.sprintf "consolidate(%d/host)" vms_per_host
  | Rebalance _ -> "rebalance"

let plan_for t trigger =
  let cluster = Ninja.cluster t.ninja in
  let vms = Ninja.vms t.ninja in
  match trigger with
  | Maintenance { avoid } -> Placement.evacuation_plan cluster ~vms ~avoid
  | Disaster { rack } ->
    Placement.evacuation_plan cluster ~vms ~avoid:(fun n -> n.Node.rack = rack)
  | Consolidate { vms_per_host; targets } ->
    Placement.consolidation_plan cluster ~vms ~vms_per_host ~targets
  | Rebalance { targets } -> Placement.spread_plan cluster ~vms ~targets

(* Turn the trigger's placement into an executable migration plan: derive
   capacity/staging dependencies, let the configured strategy shape the
   parallelism, and run the result inside the fence window that
   [Ninja.migrate] opens. VMs already on an acceptable host contribute no
   step (in particular they no longer pay a loopback self-migration). *)
let build_plan t dst_of =
  let cluster = Ninja.cluster t.ninja in
  let vms = Ninja.vms t.ninja in
  let staging = Placement.nodes_free cluster ~vms in
  let plan = Plan.of_assignment cluster ~vms ~dst_of ~staging () in
  Solver.solve t.strategy cluster ~traffic:t.traffic plan

(* Would [n] be a policy-conformant destination for this trigger? Rerouted
   steps must respect it too: evacuating onto an avoided node would undo
   the trigger. *)
let acceptable trigger n =
  match trigger with
  | Maintenance { avoid } -> not (avoid n)
  | Disaster { rack } -> n.Node.rack <> rack
  | Consolidate { targets; _ } | Rebalance { targets } ->
    List.exists (fun m -> m.Node.id = n.Node.id) targets

(* When a destination dies mid-plan, send the step to the first live node
   the trigger's policy accepts that still has room. "Room" counts VMs
   currently resident, every other step's intended destination, and the
   reroutes this closure already granted — reroute decisions are taken
   while migrations are in flight, so current placement alone undercounts
   and concurrent reroutes would pile every displaced VM onto the first
   node that merely looks empty, overcommitting its memory. Candidates
   are further pinned to the planned destination's interconnect class:
   [Ninja.migrate] computed its detach/re-attach device plan for that
   class, so sending the VM across fabrics would land it without (or
   with a stale) bypass device. *)
let make_reroute t trigger plan =
  let cluster = Ninja.cluster t.ninja in
  let granted : (int, Vm.t list ref) Hashtbl.t = Hashtbl.create 4 in
  fun (step : Plan.step) ->
    (* A committed postcopy switchover pins the VM: its memory is split
       between source and destination, so aiming the pull stream at a
       third node is meaningless. A lost VM has nothing left to move.
       Either way the step must fail rather than be rerouted. *)
    if Vm.switchover_committed step.Plan.vm || Vm.is_lost step.Plan.vm then None
    else begin
    let vms = Ninja.vms t.ninja in
    let headed_to n =
      let residents =
        List.filter (fun vm -> (Vm.host vm).Node.id = n.Node.id) vms
      in
      let planned =
        Plan.steps plan
        |> List.filter (fun (s : Plan.step) -> s.Plan.dst.Node.id = n.Node.id)
        |> List.map (fun (s : Plan.step) -> s.Plan.vm)
      in
      let rerouted =
        match Hashtbl.find_opt granted n.Node.id with Some l -> !l | None -> []
      in
      step.Plan.vm :: (residents @ planned @ rerouted)
      |> List.sort_uniq (fun a b -> compare (Vm.name a) (Vm.name b))
    in
    let fits n =
      let load = headed_to n in
      let bytes =
        List.fold_left (fun acc vm -> acc +. Memory.total_bytes (Vm.memory vm)) 0.0 load
      in
      let count_ok =
        match trigger with
        | Consolidate { vms_per_host; _ } -> List.length load <= vms_per_host
        | Maintenance _ | Disaster _ | Rebalance _ -> true
      in
      count_ok && bytes <= n.Node.mem_bytes
    in
    let choice =
      (* The indexed free-memory registry pre-filters to nodes whose
         registered residents leave room for this VM (id order), so the
         scan below only prices in-flight state — planned arrivals and
         already-granted reroutes — instead of walking every node. *)
      Cluster.nodes_with_free cluster
        ~bytes:(Memory.total_bytes (Vm.memory step.Plan.vm))
      |> List.find_opt (fun n ->
             Cluster.node_alive cluster n
             && n.Node.id <> step.Plan.dst.Node.id
             && n.Node.id <> (Vm.host step.Plan.vm).Node.id
             && Node.has_ib n = Node.has_ib step.Plan.dst
             && acceptable trigger n && fits n)
    in
    (match choice with
    | Some n ->
      let l =
        match Hashtbl.find_opt granted n.Node.id with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace granted n.Node.id l;
          l
      in
      l := step.Plan.vm :: !l
    | None -> ());
    choice
    end

let execute t trigger =
  Probe.emit
    (Cluster.probes (Ninja.cluster t.ninja))
    (Probe.Trigger { trigger = trigger_name trigger });
  let dst_of = plan_for t trigger in
  let plan = build_plan t dst_of in
  let report = ref None in
  let breakdown =
    Ninja.migrate t.ninja ~plan:dst_of ~mode:t.mode
      ~migration_exec:(fun () ->
        report :=
          Some
            (Executor.run (Ninja.cluster t.ninja) ~mode:t.mode
               ~reroute:(make_reroute t trigger plan) plan))
      ()
  in
  t.records <- { at = Sim.now t.sim; trigger; breakdown; report = !report } :: t.records;
  breakdown

let schedule t ~after trigger =
  Sim.spawn t.sim ~name:("trigger-" ^ trigger_name trigger) (fun () ->
      Sim.sleep after;
      ignore (execute t trigger))

let history t = List.rev t.records
