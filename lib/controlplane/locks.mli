(** Host/VM claims: the overlap guard between concurrent batches.

    Before a batch plan executes, the service claims — atomically, all or
    nothing — every VM it will move and every node its steps touch
    (sources, destinations, staging nodes), plus a per-node reservation of
    the memory bytes about to arrive. A second batch whose footprint
    intersects a claimed VM or node is deferred, so simultaneously
    executing plans can never migrate the same VM, fight over a node's
    migration slots, or jointly overcommit a destination: placement counts
    {!reserved_bytes} as already-used capacity.

    Claims can grow mid-flight ({!extend}) when the executor reroutes a
    step around a dead node, and are released as a unit when the batch
    completes or rolls back. *)

type t

type claim
(** One batch's footprint. *)

val create : unit -> t

val batch : claim -> int

val host_free : t -> ?batch:int -> int -> bool
(** Whether the node id is unclaimed — or claimed by [batch] itself. *)

val vm_free : t -> string -> bool

val reserved_bytes : t -> int -> float
(** Memory bytes currently reserved for in-flight arrivals at a node. *)

val try_claim :
  t ->
  batch:int ->
  vms:string list ->
  hosts:int list ->
  reserved:(int * float) list ->
  claim option
(** All-or-nothing: [None] (and no state change) if any VM or host is
    already claimed by another batch. Duplicate entries are fine. *)

val extend : t -> claim -> host:int -> bytes:float -> unit
(** Add a node (and an arrival reservation on it) to an existing claim —
    the reroute path. The node must be free or already ours; raises
    [Invalid_argument] if another batch holds it. *)

val release : t -> claim -> unit
(** Returns every VM, host and reservation of the claim. Idempotent. *)

val claimed_hosts : t -> int list
(** Sorted; for introspection and tests. *)
