open Ninja_engine
open Ninja_hardware
open Ninja_metrics
open Ninja_vmm
open Ninja_core
open Ninja_workloads
open Exp_common

let virtio_tag = "virtio0"

let hca_of _vm = [ Device.hca () ]

(* The destination-side NIC for Ethernet rows: a freshly hot-added virtio
   device (the source one is the device under test and was unplugged). *)
let virtio_of _vm = [ Device.make ~tag:"vnic1" ~pci_addr:"00:04.0" Device.Virtio_net ]

let measure rc combo ~hotplug ~linkup =
  let src_ib, dst_ib =
    match combo with
    | Paper_data.Ib_to_ib -> (true, true)
    | Paper_data.Ib_to_eth -> (true, false)
    | Paper_data.Eth_to_ib -> (false, true)
    | Paper_data.Eth_to_eth -> (false, false)
  in
  let env = fresh ~spec:Spec.agc_ib16 rc in
  let sim = env.sim and cluster = env.cluster in
  let hs = hosts cluster ~prefix:"ib" ~first:0 ~count:8 in
  let ninja = Ninja.setup cluster ~hosts:hs ~attach_hca:src_ib () in
  ignore
    (Ninja.launch ninja ~procs_per_vm:1 (fun ctx ->
         Memtest.run_until ctx ~array_bytes:(Units.gb 2.0) ~until:150.0 ()));
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 10);
      (* The device under test is the side's interconnect device: the
         bypass HCA on InfiniBand sides, the virtio NIC on Ethernet
         sides. *)
      let detach vm =
        if src_ib then [ Device.hca_tag ]
        else if Vm.find_device vm ~tag:virtio_tag <> None then [ virtio_tag ]
        else []
      in
      let attach vm = if dst_ib then hca_of vm else virtio_of vm in
      let b =
        Ninja.migrate ninja ~plan:(fun vm -> Vm.host vm) ~detach ~attach ()
      in
      hotplug := sec (Breakdown.hotplug b);
      linkup := sec b.Breakdown.linkup;
      Ninja.wait_job ninja);
  run_to_completion env

let run rc =
  let repeats = match rc.Run_ctx.mode with Quick -> 1 | Full -> 3 in
  let table =
    Table.create ~title:"Table II: elapsed time of hotplug and link-up [seconds]"
      ~columns:
        [ "Combination"; "hotplug (paper)"; "hotplug (ours)"; "link-up (paper)"; "link-up (ours)" ]
  in
  let rows =
    sweep rc
      ~f:(fun rc combo ->
        let one () =
          let hotplug = ref 0.0 and linkup = ref 0.0 in
          measure rc combo ~hotplug ~linkup;
          (!hotplug, !linkup)
        in
        (* Deterministic simulation: repeats exist to mirror the paper's
           best-of-three protocol, not to tame noise. *)
        let samples = List.init repeats (fun _ -> one ()) in
        (combo, Stats.minimum (List.map fst samples), Stats.minimum (List.map snd samples)))
      Paper_data.combos
  in
  List.iter
    (fun (combo, hotplug, linkup) ->
      Table.add_row table
        [
          Paper_data.combo_name combo;
          Printf.sprintf "%.2f" (Paper_data.table2_hotplug combo);
          Printf.sprintf "%.2f" hotplug;
          Printf.sprintf "%.2f" (Paper_data.table2_linkup combo);
          Printf.sprintf "%.2f" linkup;
        ])
    rows;
  [ table ]
