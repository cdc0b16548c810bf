type kind = Ib_hca | Virtio_net | Eth_10g | Emulated_nic

type t = { tag : string; pci_addr : string; kind : kind }

let make ~tag ~pci_addr kind = { tag; pci_addr; kind }

let hca_tag = "vf0"

let hca () = make ~tag:hca_tag ~pci_addr:"04:00.0" Ib_hca

let is_bypass = function Ib_hca -> true | Virtio_net | Eth_10g | Emulated_nic -> false

let bandwidth = function
  | Ib_hca -> Calibration.ib_bandwidth
  | Virtio_net -> Calibration.virtio_bandwidth
  | Eth_10g -> Calibration.eth10g_bandwidth
  | Emulated_nic -> Calibration.emulated_bandwidth

let latency = function
  | Ib_hca -> Calibration.ib_latency
  | Virtio_net -> Calibration.virtio_latency
  | Eth_10g -> Calibration.eth10g_latency
  | Emulated_nic -> Calibration.emulated_latency

let cpu_per_byte = function
  | Ib_hca -> Calibration.ib_cpu_per_byte
  | Virtio_net -> Calibration.virtio_cpu_per_byte
  | Eth_10g -> Calibration.eth10g_cpu_per_byte
  | Emulated_nic -> Calibration.emulated_cpu_per_byte

let detach_time = function
  | Ib_hca -> Calibration.detach_ib
  | Virtio_net | Eth_10g | Emulated_nic -> Calibration.detach_eth

let attach_time = function
  | Ib_hca -> Calibration.attach_ib
  | Virtio_net | Eth_10g | Emulated_nic -> Calibration.attach_eth

let linkup_time = function
  | Ib_hca -> Calibration.linkup_ib
  | Virtio_net | Eth_10g | Emulated_nic -> Calibration.linkup_eth

let kind_name = function
  | Ib_hca -> "ib-hca"
  | Virtio_net -> "virtio-net"
  | Eth_10g -> "eth-10g"
  | Emulated_nic -> "emulated-nic"
