open Ninja_engine
open Ninja_hardware

type command =
  | Device_del of { tag : string; noise : float }
  | Device_add of { device : Device.t; noise : float }
  | Migrate of { dst : Node.t; transport : Migration.transport; mode : Migration.mode }

type response = Elapsed of Time.span | Migrated of Migration.stats | Error of string

let command_to_string = function
  | Device_del { tag; _ } -> Printf.sprintf "device_del %s" tag
  | Device_add { device; _ } ->
    Printf.sprintf "device_add %s %s %s" device.Device.tag device.Device.pci_addr
      (match device.Device.kind with
      | Device.Ib_hca -> "ib"
      | Device.Virtio_net -> "virtio"
      | Device.Eth_10g -> "eth"
      | Device.Emulated_nic -> "emulated")
  | Migrate { dst; mode = Migration.Postcopy; _ } ->
    Printf.sprintf "migrate_postcopy %s" dst.Node.name
  | Migrate { dst; transport = Migration.Tcp; _ } -> Printf.sprintf "migrate %s" dst.Node.name
  | Migrate { dst; transport = Migration.Rdma; _ } ->
    Printf.sprintf "migrate_rdma %s" dst.Node.name

(* How long the controller waits on a monitor command before declaring the
   round-trip lost (the injected [Qmp_timeout] failure mode: the command is
   dropped before execution, so re-issuing it is always safe). *)
let command_timeout = Time.sec 2

let probe_command vm command =
  let probes = Cluster.probes (Vm.cluster vm) in
  if Probe.active probes then begin
    let command, args =
      match command with
      | Device_del { tag; _ } -> ("device_del", [ ("tag", tag) ])
      | Device_add { device; _ } -> ("device_add", [ ("tag", device.Device.tag) ])
      | Migrate { dst; mode; _ } ->
        ("migrate", [ ("dst", dst.Node.name); ("mode", Migration.mode_name mode) ])
    in
    Probe.emit probes (Probe.Qmp { vm = Vm.name vm; command; args })
  end

let execute vm command =
  probe_command vm command;
  let injector = Cluster.injector (Vm.cluster vm) in
  if
    Ninja_faults.Injector.enabled injector
    && Ninja_faults.Injector.fire injector Ninja_faults.Injector.Qmp_timeout
         ~site:(Vm.name vm)
  then begin
    Sim.sleep command_timeout;
    Error (Printf.sprintf "timed out: %s" (command_to_string command))
  end
  else begin
  Sim.sleep Calibration.qmp_command_overhead;
  match command with
  | Device_del { tag; noise } -> (
    match Hotplug.device_del vm ~tag ~noise () with
    | elapsed -> Elapsed elapsed
    | exception Not_found -> Error (Printf.sprintf "device not found: %s" tag))
  | Device_add { device; noise } -> (
    match Hotplug.device_add vm ~device ~noise () with
    | elapsed -> Elapsed elapsed
    | exception Hotplug.No_backing_port msg -> Error msg
    | exception Hotplug.Attach_failed msg -> Error msg
    | exception Invalid_argument msg -> Error msg)
  | Migrate { dst; transport; mode } -> (
    match Migration.migrate vm ~dst ~transport ~mode () with
    | stats -> Migrated stats
    | exception Migration.Bypass_device_attached msg -> Error msg
    | exception Migration.Aborted msg -> Error msg
    | exception Migration.Postcopy_lost msg -> Error msg
    | exception Cluster.Node_dead msg -> Error msg
    | exception Cluster.Unreachable msg -> Error msg)
  end
