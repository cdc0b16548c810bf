(** Cluster specifications.

    [agc] reproduces the paper's testbed (Table I): 16 Dell PowerEdge M610
    blades — 2× quad-core Xeon E5540 (8 cores), 48 GB DDR3, Mellanox
    ConnectX QDR IB, Broadcom BCM57711 10 GbE — in one M1000e enclosure
    with an M3601Q IB switch and an M8024 10 GbE switch. The experiments
    split it into an 8-node "InfiniBand cluster" and an 8-node "Ethernet
    cluster". *)

type group = {
  count : int;
  name_prefix : string;
  rack : int;
  cores : float;
  mem_bytes : float;
  with_ib : bool;
}

type t = { name : string; groups : group list }

val agc : t
(** The paper's 16-node AGC testbed in its heterogeneous-data-center
    configuration: an 8-node "InfiniBand cluster" (rack 0) and an 8-node
    "Ethernet cluster" (rack 1, no HCAs exposed). *)

val agc_ib16 : t
(** The same 16 blades with InfiniBand everywhere — the §IV-B setting
    where "both the source and the destination clusters use Infiniband
    only" (Table II, Figs. 6–7). *)

val small : t
(** A 2+2-node miniature for quickstart examples and fast tests. *)

val make : ?name:string -> ib_nodes:int -> eth_nodes:int -> unit -> t
(** [ib_nodes] InfiniBand blades in rack 0 and [eth_nodes] Ethernet-only
    blades in rack 1, each with Table I's 8 cores and 48 GB. *)

val total_nodes : t -> int

val table1 : (string * string) list
(** Table I of the paper, as label/value rows. *)
