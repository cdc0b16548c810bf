(** A physical compute node.

    Owns a processor-sharing CPU pool (all vCPUs, migration sender threads
    and TCP protocol work draw from it), its RAM size, and its fabric
    attachment points: an optional InfiniBand port, a 10 GbE port, and a
    loopback path for same-host transfers. *)

open Ninja_engine
open Ninja_flownet

type port = { tx : Fabric.link; rx : Fabric.link }

type t = {
  id : int;
  name : string;
  rack : int;
  cpu : Ps_resource.t;
  mem_bytes : float;
  ib_port : port option;
  eth_port : port;
  loopback : Fabric.link;
}

val create :
  Sim.t ->
  Fabric.t ->
  id:int ->
  name:string ->
  rack:int ->
  cores:float ->
  mem_bytes:float ->
  with_ib:bool ->
  t

val has_ib : t -> bool
