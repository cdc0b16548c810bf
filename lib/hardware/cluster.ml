open Ninja_engine
open Ninja_flownet

type net = Ib | Eth

type inter_rack = { link_ab : Fabric.link; link_ba : Fabric.link; latency : Time.span }

(* Aggregation layers of a generated topology: per-rack leaf (top of
   rack) uplink/downlink pairs, per-pod core uplink/downlink pairs, and
   — within IB pods only — per-rack IB aggregation pairs. *)
type topo_links = {
  topo : Topology.t;
  leaf_up : Fabric.link array; (* indexed by global rack id *)
  leaf_down : Fabric.link array;
  pod_up : Fabric.link array; (* indexed by pod *)
  pod_down : Fabric.link array;
  ib_up : Fabric.link option array; (* None outside IB pods *)
  ib_down : Fabric.link option array;
}

(* A registered VM: current node id and memory footprint. The registry
   lives here (below the VMM layer, which depends on this one) so it is
   keyed by name; {!Ninja_vmm.Vm} keeps it in sync from create/set_host. *)
type vm_entry = { mutable vm_node : int; vm_bytes : float }

type t = {
  sim : Sim.t;
  fabric : Fabric.t;
  spec : Spec.t;
  topo : topo_links option;
  nodes : Node.t array;
  by_name : (string, Node.t) Hashtbl.t;
  eth_only_list : Node.t list;
  vms : (string, vm_entry) Hashtbl.t;
  used_bytes : float array; (* per node id, registered VM memory *)
  probes : Probe.t;
  inter_racks : (int * int, inter_rack) Hashtbl.t;
  injector : Ninja_faults.Injector.t;
  dead_nodes : (int, unit) Hashtbl.t;
  mutable route_epoch : int; (* bumped by [set_inter_rack], the one route change *)
}

exception Unreachable of string

exception Node_dead of string

let sim t = t.sim

let fabric t = t.fabric

(* Aggregation links are created rack-major then pod-major, so link ids
   (and therefore solver tie-breaks) depend only on the topology. *)
let build_topo_links fabric topo =
  let racks = Topology.rack_count topo in
  let pods = topo.Topology.pods in
  let leaf = Topology.leaf_capacity topo in
  let pod_cap = Topology.pod_capacity topo in
  let ib_cap = Topology.ib_capacity topo in
  let mk fmt_dir r capacity = Fabric.add_link fabric ~name:(fmt_dir r) ~capacity in
  let leaf_up =
    Array.init racks (fun r -> mk (Printf.sprintf "leaf.up.r%d") r leaf)
  in
  let leaf_down =
    Array.init racks (fun r -> mk (Printf.sprintf "leaf.down.r%d") r leaf)
  in
  let pod_up =
    Array.init pods (fun p -> mk (Printf.sprintf "pod.up.p%d") p pod_cap)
  in
  let pod_down =
    Array.init pods (fun p -> mk (Printf.sprintf "pod.down.p%d") p pod_cap)
  in
  let ib_rack dir r =
    if Topology.is_ib_pod topo (Topology.pod_of_rack topo r) then
      Some (mk (Printf.sprintf "ibagg.%s.r%d" dir) r ib_cap)
    else None
  in
  let ib_up = Array.init racks (ib_rack "up") in
  let ib_down = Array.init racks (ib_rack "down") in
  { topo; leaf_up; leaf_down; pod_up; pod_down; ib_up; ib_down }

let create sim ?spec ?topology () =
  let spec =
    match (topology, spec) with
    | Some topo, _ -> Topology.to_spec topo
    | None, Some s -> s
    | None, None -> Spec.agc
  in
  let fabric = Fabric.create sim in
  let topo = Option.map (build_topo_links fabric) topology in
  let nodes =
    List.concat_map
      (fun (g : Spec.group) ->
        List.init g.count (fun i ->
            ( g,
              Printf.sprintf "%s%02d" g.name_prefix i )))
      spec.groups
    |> List.mapi (fun id ((g : Spec.group), name) ->
           Node.create sim fabric ~id ~name ~rack:g.rack ~cores:g.cores ~mem_bytes:g.mem_bytes
             ~with_ib:g.with_ib)
    |> Array.of_list
  in
  let by_name = Hashtbl.create (Array.length nodes) in
  Array.iter (fun (n : Node.t) -> Hashtbl.replace by_name n.name n) nodes;
  let eth_only_list = List.filter (fun n -> not (Node.has_ib n)) (Array.to_list nodes) in
  let probes = Probe.create sim in
  let injector = Ninja_faults.Injector.create sim in
  Ninja_faults.Injector.set_probes injector probes;
  {
    sim;
    fabric;
    spec;
    topo;
    nodes;
    by_name;
    eth_only_list;
    vms = Hashtbl.create 64;
    used_bytes = Array.make (Array.length nodes) 0.0;
    probes;
    inter_racks = Hashtbl.create 4;
    injector;
    dead_nodes = Hashtbl.create 4;
    route_epoch = 0;
  }

let injector t = t.injector

let probes t = t.probes

let kill_node t (n : Node.t) =
  if not (Hashtbl.mem t.dead_nodes n.Node.id) then begin
    Hashtbl.replace t.dead_nodes n.Node.id ();
    Probe.emit t.probes (Probe.Node_death { node = n.Node.name })
  end

let node_alive t (n : Node.t) = not (Hashtbl.mem t.dead_nodes n.Node.id)

let alive_nodes t = List.filter (node_alive t) (Array.to_list t.nodes)

let node t i = t.nodes.(i)

let node_count t = Array.length t.nodes

let nodes t = Array.to_list t.nodes

let rerates t =
  Array.fold_left (fun acc n -> acc + Ps_resource.rerates n.Node.cpu) (Fabric.rerates t.fabric) t.nodes

let eth_only_nodes t = t.eth_only_list

let find_node t name = Hashtbl.find t.by_name name

(* ------------------------------------------------------------------ *)
(* VM registry *)

let remove_entry t (e : vm_entry) =
  t.used_bytes.(e.vm_node) <- Float.max 0.0 (t.used_bytes.(e.vm_node) -. e.vm_bytes)

let register_vm t ~name ~node ~bytes =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Cluster.register_vm: node id out of range";
  if not (bytes >= 0.0 && Float.is_finite bytes) then
    invalid_arg "Cluster.register_vm: bytes must be non-negative";
  (* Latest registration wins: restoring a snapshot re-creates a VM under
     its original name while the stale instance may still linger. *)
  (match Hashtbl.find_opt t.vms name with
  | Some stale -> remove_entry t stale
  | None -> ());
  Hashtbl.replace t.vms name { vm_node = node; vm_bytes = bytes };
  t.used_bytes.(node) <- t.used_bytes.(node) +. bytes

let move_vm t ~name ~node =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Cluster.move_vm: node id out of range";
  match Hashtbl.find_opt t.vms name with
  | None -> raise Not_found
  | Some e ->
    if e.vm_node <> node then begin
      remove_entry t e;
      e.vm_node <- node;
      t.used_bytes.(node) <- t.used_bytes.(node) +. e.vm_bytes
    end

let vm_node t ~name =
  Option.map (fun e -> t.nodes.(e.vm_node)) (Hashtbl.find_opt t.vms name)

let node_free_bytes t (n : Node.t) = n.Node.mem_bytes -. t.used_bytes.(n.Node.id)

let nodes_with_free t ~bytes =
  Array.to_list t.nodes
  |> List.filter (fun (n : Node.t) -> node_free_bytes t n >= bytes)

let set_inter_rack t ~rack_a ~rack_b ~capacity ~latency =
  let mk a b =
    Fabric.add_link t.fabric ~name:(Printf.sprintf "wan.r%d-r%d" a b) ~capacity
  in
  let ir = { link_ab = mk rack_a rack_b; link_ba = mk rack_b rack_a; latency } in
  Hashtbl.replace t.inter_racks (rack_a, rack_b) ir;
  t.route_epoch <- t.route_epoch + 1

let route_epoch t = t.route_epoch

let inter_rack_hop t (src : Node.t) (dst : Node.t) =
  if src.rack = dst.rack then None
  else
    match Hashtbl.find_opt t.inter_racks (src.rack, dst.rack) with
    | Some ir -> Some ([ ir.link_ab ], ir.latency)
    | None -> (
      match Hashtbl.find_opt t.inter_racks (dst.rack, src.rack) with
      | Some ir -> Some ([ ir.link_ba ], ir.latency)
      | None -> Some ([], Time.zero))

(* Three-tier routing over a generated topology. Ethernet climbs the
   hierarchy only as far as needed (rack < pod < core); IB is confined to
   its pod, crossing the non-blocking per-rack aggregation layer between
   racks. Same-rack traffic is switched locally (non-blocking leaf), so
   only the endpoints' ports constrain it. *)
let topo_route (tl : topo_links) ~net (src : Node.t) (dst : Node.t) =
  let topo = tl.topo in
  let spod = Topology.pod_of_rack topo src.rack in
  let dpod = Topology.pod_of_rack topo dst.rack in
  match net with
  | Ib -> (
    match (src.ib_port, dst.ib_port) with
    | Some sp, Some dp when src.rack = dst.rack -> Some [ sp.tx; dp.rx ]
    | Some sp, Some dp when spod = dpod -> (
      match (tl.ib_up.(src.rack), tl.ib_down.(dst.rack)) with
      | Some up, Some down -> Some [ sp.tx; up; down; dp.rx ]
      | _ -> None)
    | _ -> None)
  | Eth ->
    if src.rack = dst.rack then Some [ src.eth_port.tx; dst.eth_port.rx ]
    else if spod = dpod then
      Some [ src.eth_port.tx; tl.leaf_up.(src.rack); tl.leaf_down.(dst.rack); dst.eth_port.rx ]
    else
      Some
        [
          src.eth_port.tx;
          tl.leaf_up.(src.rack);
          tl.pod_up.(spod);
          tl.pod_down.(dpod);
          tl.leaf_down.(dst.rack);
          dst.eth_port.rx;
        ]

let route_opt t ~net ~src ~dst =
  if src.Node.id = dst.Node.id then Some [ src.Node.loopback ]
  else
    match t.topo with
    | Some tl -> topo_route tl ~net src dst
    | None -> (
      match net with
      | Ib -> (
        match (src.Node.ib_port, dst.Node.ib_port) with
        | Some sp, Some dp when src.Node.rack = dst.Node.rack -> Some [ sp.tx; dp.rx ]
        | Some _, Some _ | Some _, None | None, Some _ | None, None -> None)
      | Eth ->
        let hop =
          match inter_rack_hop t src dst with Some (links, _) -> links | None -> []
        in
        Some (((src.Node.eth_port.tx :: hop) @ [ dst.Node.eth_port.rx ])))

let route t ~net ~src ~dst =
  match route_opt t ~net ~src ~dst with
  | Some r -> r
  | None ->
    raise
      (Unreachable
         (Printf.sprintf "no %s path from %s to %s"
            (match net with Ib -> "ib" | Eth -> "eth")
            src.Node.name dst.Node.name))

let path_latency t ~net ~src ~dst =
  let base =
    match net with
    | Ib -> Calibration.ib_latency
    | Eth -> Calibration.eth10g_latency
  in
  if src.Node.id = dst.Node.id then base
  else
    match t.topo with
    | Some tl ->
      if src.Node.rack = dst.Node.rack then base
      else
        let leaf2 = Time.add Topology.leaf_hop_latency Topology.leaf_hop_latency in
        let spod = Topology.pod_of_rack tl.topo src.Node.rack in
        let dpod = Topology.pod_of_rack tl.topo dst.Node.rack in
        if spod = dpod then Time.add base leaf2
        else
          Time.add base
            (Time.add leaf2 (Time.add Topology.spine_hop_latency Topology.spine_hop_latency))
    | None -> (
      match inter_rack_hop t src dst with
      | Some (_, extra) -> Time.add base extra
      | None -> base)
