(** Guest-visible network devices.

    A device is what the guest OS sees on its PCI bus: either a VMM-bypass
    InfiniBand HCA (PCI passthrough of a host port — fast, but it pins the
    VM to its host and must be hot-unplugged before any migration) or a
    para-virtualised / emulated NIC backed by whichever host the VM
    currently runs on. *)

type kind =
  | Ib_hca  (** VMM-bypass ConnectX QDR HCA (passthrough). *)
  | Virtio_net  (** Para-virtualised NIC over the host 10 GbE port. *)
  | Eth_10g  (** Bare-metal 10 GbE (host-side path, e.g. migration). *)
  | Emulated_nic  (** Fully emulated NIC; ablation benches only. *)

type t = {
  tag : string;  (** monitor-visible tag, e.g. ["vf0"]. *)
  pci_addr : string;  (** e.g. ["04:00.0"]. *)
  kind : kind;
}

val make : tag:string -> pci_addr:string -> kind -> t

val hca_tag : string
(** ["vf0"], the tag of the passthrough HCA. *)

val hca : unit -> t
(** The passthrough HCA every VM on an InfiniBand host carries: an
    [Ib_hca] tagged {!hca_tag} at PCI address ["04:00.0"]. *)

val is_bypass : kind -> bool
(** True for devices that bypass the VMM and therefore block migration. *)

val bandwidth : kind -> float

val latency : kind -> Ninja_engine.Time.span

val cpu_per_byte : kind -> float

val detach_time : kind -> Ninja_engine.Time.span

val attach_time : kind -> Ninja_engine.Time.span

val linkup_time : kind -> Ninja_engine.Time.span

val kind_name : kind -> string
