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
    && Cluster.has_route cluster ~net:Cluster.Ib ~src:(Vm.host src) ~dst:(Vm.host dst)
  | Tcp ->
    has_eth_device src && has_eth_device dst
    && Cluster.has_route cluster ~net:Cluster.Eth ~src:(Vm.host src) ~dst:(Vm.host dst)

let check_usable cluster ~src ~dst kind =
  if not (reachable cluster ~src ~dst kind) then
    raise
      (Transport_failure
         (Printf.sprintf "btl_%s: no path from %s to %s (device detached or peer unreachable?)"
            (kind_name kind) (Vm.name src) (Vm.name dst)))

(* Charge protocol CPU work concurrently with the wire transfer: [work]
   on each end's host, or twice [work] on the one host both share. Under
   CPU over-commit the CPU side becomes the bottleneck. *)
let with_cpu_work (src : Node.t) (dst : Node.t) work body =
  if src == dst then begin
    let task = Ps_resource.start src.cpu ~demand:1.0 ~work:(2.0 *. work) in
    body ();
    Ps_resource.await task
  end
  else begin
    let at_src = Ps_resource.start src.cpu ~demand:1.0 ~work in
    let at_dst = Ps_resource.start dst.cpu ~demand:1.0 ~work in
    body ();
    Ps_resource.await at_src;
    Ps_resource.await at_dst
  end

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
      with_cpu_work src_host dst_host (bytes *. cpb) (fun () ->
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
      with_cpu_work src_host src_host (bytes *. Calibration.sm_cpu_per_byte) (fun () ->
          Sim.sleep (Time.of_sec_f (bytes /. Calibration.sm_bandwidth)))
  end
