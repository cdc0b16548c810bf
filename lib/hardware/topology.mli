(** Parameterised datacenter topologies.

    A topology describes a multi-pod fabric: [pods] pods of
    [racks_per_pod] racks of [hosts_per_rack] hosts each. The first
    [ib_pods] pods are InfiniBand islands (every host carries a
    VMM-bypass HCA, and a non-blocking per-rack IB aggregation layer
    spans the pod); the rest are Ethernet-only. Ethernet connects
    everything through a three-tier hierarchy — host → leaf (top of
    rack) → pod uplink → core — with [oversub]:1 oversubscription at
    the leaf (and, for [Leaf_spine], again at the spine).

    This is the "heterogeneous data center" of the paper scaled past the
    testbed: migration traffic crossing pods contends on shared uplinks,
    which is exactly the regime where the incremental Flownet solver
    pays off. [to_spec] lowers a topology to a {!Spec.t} (one group per
    rack) so {!Cluster.create} builds the hosts through the existing
    path; the aggregation links and multi-tier routing are layered on by
    [Cluster] when given the topology. *)

type tier =
  | Leaf_spine  (** Oversubscription applies at both leaf and spine. *)
  | Fat_tree  (** Full bisection above the leaves. *)

type t = private {
  tier : tier;
  pods : int;
  racks_per_pod : int;
  hosts_per_rack : int;
  ib_pods : int;  (** Pods [0 .. ib_pods-1] are IB islands. *)
  oversub : float;  (** Leaf oversubscription ratio, >= 1. *)
  cores : float;  (** Per-host core count. *)
  mem_gb : float;  (** Per-host memory, binary GB. *)
  seed : int64;  (** Drives {!place}; part of the textual form. *)
}

val v :
  ?tier:tier ->
  ?pods:int ->
  ?racks_per_pod:int ->
  ?hosts_per_rack:int ->
  ?ib_pods:int ->
  ?oversub:float ->
  ?cores:float ->
  ?mem_gb:float ->
  ?seed:int64 ->
  unit ->
  (t, string) result
(** Defaults: leaf-spine, 2 pods x 2 racks x 8 hosts, 1 IB pod, 4:1
    oversubscription, 8 cores, 48 GB, seed 1. *)

val validate : t -> (unit, string) result

(** {1 Shape} *)

val rack_count : t -> int

val host_count : t -> int

val eth_host_count : t -> int

val is_ib_pod : t -> int -> bool

val pod_of_rack : t -> int -> int
(** Global rack id (as found in {!Spec.group.rack}) to pod. *)

val host_name : pod:int -> rack:int -> host:int -> string
(** ["p0r1h03"]: pod 0, rack 1 within the pod, host 3 within the rack. *)

val pod_hosts : t -> int -> string list

val hosts : t -> string list
(** All host names, pod-major — the node-id order of {!to_spec}. *)

val to_spec : t -> Spec.t
(** One {!Spec.group} per (pod, rack), so node names and rack ids follow
    {!host_name} / global rack numbering. *)

(** {1 Fabric capacities} *)

val leaf_capacity : t -> float
(** Top-of-rack uplink, bytes/s: rack host bandwidth over [oversub]. *)

val pod_capacity : t -> float
(** Pod-to-core uplink, bytes/s. [Fat_tree] carries the full leaf
    aggregate; [Leaf_spine] divides it by [oversub] again. *)

val ib_capacity : t -> float
(** Per-rack IB aggregation within an IB pod — non-blocking. *)

val leaf_hop_latency : Ninja_engine.Time.span

val spine_hop_latency : Ninja_engine.Time.span

(** {1 Textual form} *)

val to_string : t -> string
(** [leaf-spine:pods=4,racks=2,hosts=8,ib-pods=2,oversub=4,cores=8,mem-gb=48,seed=7].
    Floats print as [%.17g], so {!of_string} round-trips exactly. *)

val of_string : string -> (t, string) result
(** Accepts [<tier>] alone or [<tier>:k=v,...]; unspecified keys take the
    {!v} defaults. *)

val pp : Format.formatter -> t -> unit

(** {1 Seeded placement} *)

val place : t -> ?pods:int list -> vms:int -> vm_bytes:float -> unit -> string list
(** [place t ~vms ~vm_bytes ()] assigns [vms] VMs to hosts uniformly at
    random (seeded by [t.seed]), never exceeding
    [floor (mem_bytes t / vm_bytes)] VMs per host. [?pods] restricts the
    candidate hosts. Deterministic: equal topologies produce equal
    placements. Raises [Invalid_argument] when demand exceeds capacity. *)

(** {1 Fuzzing} *)

val gen : Ninja_engine.Prng.t -> t
(** A small scenario-sized topology (2–4 pods, at least one IB and one
    Ethernet pod) for [ninja_sim check]. *)

val shrink : t -> t list
(** Strictly smaller candidate topologies, all valid, preserving at
    least one IB and one Ethernet pod. *)
