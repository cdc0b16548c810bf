(** A simulated data center: nodes plus the shared network fabric.

    Two construction modes. From a {!Spec.t}, routing is intentionally
    simple — blade-enclosure switches are non-blocking, so a path is
    [src.tx → dst.rx] on the chosen network (plus an explicit inter-rack
    link when one has been configured, which is how the
    disaster-recovery example models a WAN hop). From a {!Topology.t},
    the cluster additionally builds the aggregation layers (per-rack
    leaf uplinks, per-pod core uplinks, per-rack IB aggregation inside
    IB pods) and Ethernet paths climb the three-tier hierarchy, so
    cross-rack migration traffic contends on shared oversubscribed
    links. Same-node paths go through the node's loopback either way. *)

open Ninja_engine
open Ninja_flownet

type net = Ib | Eth

type t

val create : Sim.t -> ?spec:Spec.t -> ?topology:Topology.t -> unit -> t
(** Default spec is {!Spec.agc}. When [topology] is given it takes
    precedence: the node population comes from {!Topology.to_spec} and
    multi-tier routing is enabled. *)

val sim : t -> Sim.t

val fabric : t -> Fabric.t

val rerates : t -> int
(** Policy runs so far, summed over the nodes' CPU sets and the fabric (a
    cost counter: each [Rated] set re-rates at most once per instant). *)

val probes : t -> Probe.t
(** The cluster's probe bus: every protocol layer (hotplug, migration,
    SymVirt fence, planner, faults) announces its transitions here, and
    {!Ninja_check.Checker}-style observers subscribe to it. Idle unless
    subscribed. *)

val node : t -> int -> Node.t
(** [node t i] is the node whose [Node.id] is [i]: ids are the indices
    [0 .. node_count t - 1] of the nodes in creation order. *)

val node_count : t -> int

val nodes : t -> Node.t list
(** Every node, in id order. *)

val eth_only_nodes : t -> Node.t list

val find_node : t -> string -> Node.t
(** By name (hash lookup); raises [Not_found]. *)

(** {1 VM registry}

    An indexed store of VM placements, kept in sync by
    [Ninja_vmm.Vm.create]/[set_host]: name → node plus per-node memory
    aggregates, so occupancy queries cost O(1) per node instead of a scan
    over every VM. Keyed by name because this layer sits below the
    VMM. *)

val register_vm : t -> name:string -> node:int -> bytes:float -> unit
(** Latest registration under a name wins (snapshot restore re-creates a
    VM under its original name). *)

val move_vm : t -> name:string -> node:int -> unit
(** Raises [Not_found] for an unregistered name. *)

val vm_node : t -> name:string -> Node.t option

val node_free_bytes : t -> Node.t -> float

val nodes_with_free : t -> bytes:float -> Node.t list
(** Nodes with at least [bytes] of unregistered memory, in id order. *)

(** {1 Faults}

    Every cluster owns a fault injector (disabled — nothing armed — by
    default, at zero cost) and a record of dead nodes. Node death is
    permanent: a migration targeting a dead node fails with
    {!Node_dead}. *)

val injector : t -> Ninja_faults.Injector.t

val kill_node : t -> Node.t -> unit

val node_alive : t -> Node.t -> bool

val alive_nodes : t -> Node.t list
(** The nodes not killed, in id order (the order of {!nodes}). *)

exception Node_dead of string

exception Unreachable of string

val route : t -> net:net -> src:Node.t -> dst:Node.t -> Fabric.link list
(** Raises {!Unreachable} when e.g. an IB path is requested to a node
    without an IB port. *)

val route_opt : t -> net:net -> src:Node.t -> dst:Node.t -> Fabric.link list option

val path_latency : t -> net:net -> src:Node.t -> dst:Node.t -> Time.span
(** One-way propagation+protocol latency for the device class on [net]
    (plus the inter-rack latency when the path crosses racks). *)

val set_inter_rack : t -> rack_a:int -> rack_b:int -> capacity:float -> latency:Time.span -> unit
(** Install a constrained Ethernet link pair between two racks (e.g. a WAN
    for cross-data-center evacuation). Without one, cross-rack Ethernet
    traffic is only limited by the endpoints' ports. Meant for set-up:
    it changes the routes between the two racks' nodes, so it bumps
    {!route_epoch}. *)

val route_epoch : t -> int
(** How many times the routes have changed ({!set_inter_rack} calls).
    Routes, and so anything computed from them alone, hold while it
    stays the same: a consumer that keeps them drops them when it moves. *)
