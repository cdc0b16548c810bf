(** Per-step cost model for migration plans.

    Predicts, from the same parameters {!Ninja_vmm.Migration} itself uses
    — non-zero footprint, zero-page scan rate, residual dirty set, the
    single-threaded sender rate — and from the {!Ninja_flownet.Fabric}
    link capacities along the step's Ethernet route, how long a step takes
    when it has the fabric to itself, and which steps contend for the same
    bottleneck links. Solvers use these estimates to order and group
    steps; the executor then measures reality. Every planned migration
    runs over TCP, as the Ninja flow's does, so every estimate prices the
    TCP sender. *)

open Ninja_engine
open Ninja_flownet
open Ninja_hardware
open Ninja_vmm

type estimate = {
  wire_bytes : float;  (** non-zero pages that cross the wire *)
  zero_bytes : float;  (** pages the sender detects/compresses at scan rate *)
  dirty_bytes : float;  (** residual dirty set, re-sent in stop-and-copy *)
  rate : float;
      (** bytes/s the step achieves alone: min of the sender rate and the
          thinnest fabric link on the route *)
  duration : Time.span;  (** zero scan + (wire + dirty) transfer at [rate] *)
  bottleneck : Fabric.link option;
      (** the fabric link that caps [rate], or [None] when the
          single-threaded sender itself is the bottleneck *)
}

val sender_demand : float
(** Peak fabric demand of one migration (the TCP sender's private rate). *)

val route : Cluster.t -> Plan.step -> Fabric.link list
(** The shared Ethernet path the step's migration traffic crosses between
    its source and destination (the per-migration private sender hop is
    excluded). *)

val estimate_move :
  Cluster.t ->
  vm:Vm.t ->
  src:Node.t ->
  dst:Node.t ->
  bytes:float ->
  unit ->
  estimate
(** Cost of a hypothetical migration before any {!Plan.step} exists —
    what a destination-swapping solver prices when it weighs moving [vm]
    to a different host than the plan proposed. *)

val thinnest_capacity : Cluster.t -> src:Node.t -> dst:Node.t -> float
(** The route walk of {!estimate_move}: the capacity of the thinnest link
    on the Ethernet route from [src] to [dst], [infinity] for a route of
    no links. Routes and link capacities are fixed once the cluster is
    set up, so a caller may keep it. *)

val move_duration : vm:Vm.t -> bytes:float -> link_cap:float -> Time.span
(** The arithmetic of {!estimate_move}: its [duration] for a route whose
    thinnest link has capacity [link_cap], from [vm]'s current zero and
    dirty byte counts. [estimate_move c ~vm ~src ~dst ~bytes ()] has
    duration [move_duration ~vm ~bytes ~link_cap:(thinnest_capacity c
    ~src ~dst)], bit for bit. *)

val estimate : Cluster.t -> Plan.step -> estimate

val shared_links : Cluster.t -> Plan.step -> Plan.step -> Fabric.link list
(** Fabric links the two steps would contend on (empty = link-disjoint). *)

val contention : Cluster.t -> Plan.t -> (Fabric.link * float) list
(** Total wire bytes each fabric link must carry across the whole plan,
    most contended first (ties broken by link id). *)

val link_load : (Fabric.link * float) list -> Fabric.link -> float
(** Lookup in a {!contention} result; 0 for an unlisted link. *)

val sequential_duration : Cluster.t -> Plan.t -> Time.span
(** Sum of the standalone step durations — the makespan of a strictly
    serial schedule, and an upper bound for any work-conserving one. *)
