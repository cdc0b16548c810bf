open Ninja_engine
open Ninja_flownet
open Ninja_hardware
open Ninja_vmm

type kind = Sm | Tcp | Openib

exception Transport_failure of string

let exclusivity = function Sm -> 65535 | Openib -> 1024 | Tcp -> 100

let eager_limit = function
  | Sm -> 4.0 *. 1024.0
  | Openib -> float_of_int Calibration.mpi_eager_limit_ib
  | Tcp -> float_of_int Calibration.mpi_eager_limit_tcp

let kind_name = function Sm -> "sm" | Tcp -> "tcp" | Openib -> "openib"

let compare_priority a b = compare (exclusivity b) (exclusivity a)

let has_ib_device vm =
  List.exists (fun (d : Device.t) -> d.Device.kind = Device.Ib_hca) (Vm.devices vm)

let has_eth_device vm =
  List.exists
    (fun (d : Device.t) ->
      match d.Device.kind with
      | Device.Virtio_net | Device.Eth_10g | Device.Emulated_nic -> true
      | Device.Ib_hca -> false)
    (Vm.devices vm)

let eth_device_kind vm =
  List.find_map
    (fun (d : Device.t) ->
      match d.Device.kind with
      | Device.Virtio_net | Device.Eth_10g | Device.Emulated_nic -> Some d.Device.kind
      | Device.Ib_hca -> None)
    (Vm.devices vm)

let reachable cluster ~src ~dst kind =
  match kind with
  | Sm -> src == dst
  | Openib ->
    src != dst && has_ib_device src && has_ib_device dst
    && Cluster.route_opt cluster ~net:Cluster.Ib ~src:(Vm.host src) ~dst:(Vm.host dst) <> None
  | Tcp ->
    has_eth_device src && has_eth_device dst
    && Cluster.route_opt cluster ~net:Cluster.Eth ~src:(Vm.host src) ~dst:(Vm.host dst) <> None

let check_usable cluster ~src ~dst kind =
  if not (reachable cluster ~src ~dst kind) then
    raise
      (Transport_failure
         (Printf.sprintf "btl_%s: no path from %s to %s (device detached or peer unreachable?)"
            (kind_name kind) (Vm.name src) (Vm.name dst)))

(* Charge protocol CPU work on a host concurrently with the wire transfer;
   under CPU over-commit the CPU side becomes the bottleneck. *)
let with_cpu_tasks tasks body =
  let started = List.map (fun (cpu, work) -> (cpu, Ps_resource.start cpu ~demand:1.0 ~work)) tasks in
  body ();
  List.iter (fun (_, task) -> Ps_resource.await task) started

let control_latency cluster ~src ~dst kind =
  match kind with
  | Sm -> Calibration.sm_latency
  | Openib -> Cluster.path_latency cluster ~net:Cluster.Ib ~src:(Vm.host src) ~dst:(Vm.host dst)
  | Tcp ->
    let nic_latency =
      match eth_device_kind src with
      | Some k -> Device.latency k
      | None -> Calibration.virtio_latency
    in
    Time.add nic_latency
      (Cluster.path_latency cluster ~net:Cluster.Eth ~src:(Vm.host src) ~dst:(Vm.host dst))

let control_message cluster ~src ~dst kind =
  check_usable cluster ~src ~dst kind;
  Sim.sleep (control_latency cluster ~src ~dst kind)

let transfer cluster ~src ~dst kind ~bytes =
  check_usable cluster ~src ~dst kind;
  Sim.sleep (control_latency cluster ~src ~dst kind);
  if bytes > 0.0 then begin
    let fabric = Cluster.fabric cluster in
    let src_host = Vm.host src and dst_host = Vm.host dst in
    match kind with
    | Openib ->
      let route = Cluster.route cluster ~net:Cluster.Ib ~src:src_host ~dst:dst_host in
      Fabric.transfer fabric ~route ~bytes
    | Tcp ->
      let cpb =
        match eth_device_kind src with
        | Some k -> Device.cpu_per_byte k
        | None -> Calibration.virtio_cpu_per_byte
      in
      let work = bytes *. cpb in
      let tasks =
        if src_host == dst_host then [ (src_host.Node.cpu, 2.0 *. work) ]
        else [ (src_host.Node.cpu, work); (dst_host.Node.cpu, work) ]
      in
      with_cpu_tasks tasks (fun () ->
          (* The guest NIC (virtio queue or emulated device) caps below the
             10 GbE line rate; model it as a private first hop, like the
             migration sender, retired once the message is through. *)
          let nic_bw =
            match eth_device_kind src with
            | Some k -> Device.bandwidth k
            | None -> Calibration.virtio_bandwidth
          in
          let virtio_cap =
            Fabric.add_link fabric ~name:(Vm.name src ^ ".virtio") ~capacity:nic_bw
          in
          let route = Cluster.route cluster ~net:Cluster.Eth ~src:src_host ~dst:dst_host in
          Fabric.transfer fabric ~route:(virtio_cap :: route) ~bytes;
          Fabric.remove_link fabric virtio_cap)
    | Sm ->
      let work = bytes *. Calibration.sm_cpu_per_byte in
      with_cpu_tasks
        [ (src_host.Node.cpu, 2.0 *. work) ]
        (fun () -> Sim.sleep (Time.of_sec_f (bytes /. Calibration.sm_bandwidth)))
  end
