(** Migration plan IR: a DAG of per-VM migration steps.

    A batch migration (evacuation, consolidation, rebalance) is expressed
    as a set of {!step}s — (vm, src, dst, estimated wire bytes) — plus
    explicit dependency edges. An edge [before -> after] means [after] may
    not start until [before] has completed. {!of_assignment} derives the
    edges a correct batch needs:

    - {e destination-capacity conflicts}: when the destination of step A
      is currently occupied by the VM of step B, A waits for B to vacate
      (first-step of B precedes the arriving step of A);
    - {e swap/chain cycles}: when the conflict edges form a cycle (A→B and
      B→A, or longer rotations), one member of the cycle is re-routed
      through a free {e staging} node — two steps, [Stage_out] to the
      staging node and [Stage_in] to the final destination — which breaks
      the cycle (the destination-swap strategy of Avin et al.,
      arXiv:1309.5826). With no staging node available the weakest
      conflict edge is dropped instead (a deliberate overcommit, counted
      on the [plan/built] probe — hosts in this model can hold several
      VMs).

    Solvers ({!Solver}) add further {e ordering} edges on top to shape
    parallelism; the IR does not distinguish the two kinds. *)

open Ninja_hardware
open Ninja_vmm

type kind =
  | Direct  (** one hop, src → final destination *)
  | Stage_out  (** first hop of a staged VM: src → staging node *)
  | Stage_in  (** second hop of a staged VM: staging node → destination *)

type step = private {
  id : int;  (** dense, 0-based, in creation order *)
  vm : Vm.t;
  src : Node.t;
  dst : Node.t;
  bytes : float;  (** estimated wire bytes (non-zero page footprint) *)
  kind : kind;
}

type t

exception Cyclic of string
(** Raised by {!topo_order} on a cyclic plan; the payload names the steps
    involved. *)

val create : unit -> t

val add_step :
  t -> vm:Vm.t -> src:Node.t -> dst:Node.t -> bytes:float -> ?kind:kind -> unit -> step

val add_dep : t -> before:step -> after:step -> unit
(** Idempotent; raises [Invalid_argument] on a self-edge or foreign step. *)

val length : t -> int

val steps : t -> step list
(** In creation order. *)

val find : t -> int -> step
(** By id; raises [Not_found]. *)

val with_dst : step -> dst:Node.t -> step
(** A copy of the step aimed at a different destination — how the
    executor reroutes a step around a dead node. The copy shares the
    original's id, so plan dependencies keep applying to it. *)

val deps_of : t -> step -> step list
(** Steps that must complete before the given step starts. *)

val dep_count : t -> int
(** Total number of edges. *)

val is_acyclic : t -> bool

val nodes_touched : t -> Node.t list
(** Every node appearing as a step source or destination (staging nodes
    included), deduplicated and sorted by node id — the footprint a
    control plane must lock so concurrent plans never overlap. *)

val topo_order : t -> step list
(** Dependency-respecting order, deterministic (ties broken by id).
    Raises {!Cyclic}. *)

val of_assignment :
  Cluster.t ->
  vms:Vm.t list ->
  dst_of:(Vm.t -> Node.t) ->
  ?staging:Node.t list ->
  ?bytes_of:(Vm.t -> float) ->
  unit ->
  t
(** Build the plan for moving each VM to [dst_of vm]. VMs already on
    their destination contribute no step. [staging] lists candidate free
    nodes for cycle breaking (nodes that host a VM or serve as a
    destination are filtered out); [bytes_of] defaults to the VM's
    non-zero memory footprint. The result is acyclic. Announces
    [plan/built] on the cluster's probe bus with [steps], [deps],
    [acyclic], [staged] (cycle members routed via a staging node) and
    [overcommits] (cycles broken by dropping an edge). *)

val kind_name : kind -> string

val pp_step : Format.formatter -> step -> unit

val pp : Format.formatter -> t -> unit
