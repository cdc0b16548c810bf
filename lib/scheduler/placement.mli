(** VM placement policies for the cloud scheduler.

    Pure functions from current state to a destination plan; all orderings
    are deterministic (node id order). *)

open Ninja_hardware
open Ninja_vmm

val nodes_free : Cluster.t -> vms:Vm.t list -> Node.t list
(** Nodes not currently hosting any of the given VMs, in id order. *)

val evacuation_plan :
  Cluster.t -> vms:Vm.t list -> avoid:(Node.t -> bool) -> (Vm.t -> Node.t)
(** Move every VM whose host satisfies [avoid] to a free, non-avoided
    node, preferring InfiniBand-equipped nodes; VMs on acceptable hosts
    stay put. Raises [Failure] if capacity is insufficient. *)

val consolidation_plan :
  Cluster.t -> vms:Vm.t list -> vms_per_host:int -> targets:Node.t list -> (Vm.t -> Node.t)
(** Pack the VMs [vms_per_host]-deep onto the target nodes in order. *)

val spread_plan : Cluster.t -> vms:Vm.t list -> targets:Node.t list -> (Vm.t -> Node.t)
(** One VM per target node, in order (the recovery / rebalance shape). *)

val least_loaded : load:(Node.t -> float) -> need:float -> Node.t list -> Node.t option
(** The candidate with the least [(load n, node id)] among those where
    [load n +. need] fits within [Node.mem_bytes] (plus a 1e-9 relative
    slack), found in one pass that asks [load] once per candidate. Ties
    go to the lower id whatever order the candidates come in, so the
    winner is the head of the fitting candidates sorted by [(load, id)].
    [None] when no candidate fits. *)

val pack_least_loaded :
  vms:Vm.t list ->
  candidates:(Vm.t -> Node.t list) ->
  load_bytes:(Node.t -> float) ->
  bytes_of:(Vm.t -> float) ->
  unit ->
  ((Vm.t * Node.t) list, string) result
(** Capacity-aware greedy assignment, the control-plane building block:
    each VM (in list order) goes to the {!least_loaded} candidate by
    projected memory load — [load_bytes] (residents plus in-flight
    reservations, supplied by the caller) plus bytes already assigned to
    that node by this call. Ties break by node id, so the result is
    deterministic and independent of the candidates' order. [Error] names
    the first VM with no feasible destination. *)
