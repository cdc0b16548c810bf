(** Pluggable cost models for plan solvers.

    A strategy is "solve + cost model": the solver shapes the plan, the
    cost model says what it is optimising. Two models ship:

    - [Migration_time] — the classic objective, seconds of migration work
      as priced by {!Estimator} (sum of standalone step durations). What
      [sequential] and [grouped] have always minimised implicitly.
    - [Composite] — migration seconds plus the steady-state tenant
      communication cost of the {e placement} the plan ends in, amortised
      over a [horizon] of steady-state seconds. Tenant traffic matrices
      (VM-pair demand rates, see {!Ninja_workloads.Traffic} for
      generators) are priced over the {!Ninja_flownet.Fabric} routes
      between the hosts the VMs land on, weighted by residual link
      capacity, so demand crossing congested oversubscribed spine links
      costs more than demand staying inside a rack. This is the objective
      of the destination-swap strategy (Avin et al., arXiv:1309.5826),
      which accepts a swap exactly when the communication saving over the
      horizon exceeds the extra migration time it costs.

    Traffic matrices are plain data — [(vm_a, vm_b, bytes_per_sec)]
    triples keyed by VM {e name} — so workload generators can produce
    them without depending on this library. *)

open Ninja_hardware
open Ninja_vmm

type traffic = (string * string * float) list
(** Undirected demand entries [(vm_a, vm_b, rate)] in bytes/s. Entries
    whose endpoints share a host cost nothing; VM names unknown to the
    cluster registry are ignored. *)

type t =
  | Migration_time
  | Composite of { horizon : float }
      (** [horizon] — seconds of steady-state communication one unit of
          migration time trades against. *)

val default_horizon : float
(** 600 s: a swap must pay for itself within ten minutes of traffic. *)

val describe : t -> string

(** {1 Evaluation environment} *)

type env = { cluster : Cluster.t; traffic : traffic }

val env : Cluster.t -> ?traffic:traffic -> unit -> env
(** [traffic] defaults to the empty matrix (under which communication
    costs are all zero). Migration time is priced by {!Estimator}, for the
    TCP sender every planned migration uses. *)

(** {1 Cost primitives} *)

val pair_cost : env -> Node.t -> Node.t -> float
(** Cost per byte/s of demand between two hosts: 0 on the same node,
    otherwise the sum over the Ethernet route's links of
    [1 / residual capacity] (residual floored at 1% of capacity so a
    saturated link is expensive, not infinite). A demand rate multiplied
    by this is the fraction of link-seconds it consumes per second —
    dimensionless, comparable across placements. *)

val placement_cost : env -> lookup:(string -> Node.t option) -> float
(** Total communication cost of a placement: sum over traffic entries of
    [rate *. pair_cost] between the hosts [lookup] assigns the
    endpoints. Entries with an unresolvable endpoint contribute 0. *)

val current_cost : env -> float
(** {!placement_cost} of the placement the cluster's VM registry
    currently records. *)

val move_seconds :
  env -> vm:Vm.t -> src:Node.t -> dst:Node.t -> ?bytes:float -> unit -> float
(** Estimated seconds to migrate [vm] from [src] to [dst] ([bytes]
    defaults to the VM's non-zero footprint); 0 when [src] and [dst] are
    the same node. *)

val plan_placement : env -> Plan.t -> (string -> Node.t option)
(** The placement the plan ends in: each moved VM at its final
    destination (a staged VM at its [Stage_in] target), every other
    registered VM where the cluster registry has it. *)

val plan_cost : t -> env -> Plan.t -> float
(** The model's objective for a plan: migration seconds, plus for
    [Composite] [horizon] times the {!placement_cost} of
    {!plan_placement}. *)
