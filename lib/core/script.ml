open Ninja_engine
open Ninja_hardware
open Ninja_metrics
open Ninja_mpi
open Ninja_symvirt
open Ninja_vmm

type ctl = {
  ninja : Ninja.t;
  controller : Controller.t;
  sim : Sim.t;
  started : Time.t;
  mutable complete : unit Ivar.t option;
  mutable coordination : Time.span;
  mutable detach : Time.span;
  mutable migration : Time.span;
  mutable attach : Time.span;
  mutable linkup : Time.span;
}

let controller ninja =
  let members =
    List.map
      (fun (n : Ninja.vnode) ->
        { Controller.vm = n.vm; endpoint = n.endpoint; procs = Ninja.procs_per_vm ninja })
      (Ninja.vnodes ninja)
  in
  let cluster = Ninja.cluster ninja in
  {
    ninja;
    controller = Controller.create cluster ~members;
    sim = Cluster.sim cluster;
    started = Sim.now (Cluster.sim cluster);
    complete = None;
    coordination = Time.zero;
    detach = Time.zero;
    migration = Time.zero;
    attach = Time.zero;
    linkup = Time.zero;
  }

let timed ctl f =
  let t0 = Sim.now ctl.sim in
  f ();
  Time.diff (Sim.now ctl.sim) t0

let wait_all ctl =
  let span =
    timed ctl (fun () ->
        (match ctl.complete with
        | None ->
          ctl.complete <- Some (Runtime.request_checkpoint (Ninja.runtime ctl.ninja))
        | Some _ -> ());
        Controller.wait_all ctl.controller)
  in
  ctl.coordination <- Time.add ctl.coordination span

let device_detach ctl ~tag =
  let span =
    timed ctl (fun () ->
        ignore
          (Controller.run_agents ctl.controller (fun vm ->
               match Vm.find_device vm ~tag with
               | Some _ -> [ Qmp.Device_del { tag; noise = 1.0 } ]
               | None -> [])))
  in
  ctl.detach <- Time.add ctl.detach span

let device_attach ctl ~host ~tag =
  let span =
    timed ctl (fun () ->
        Controller.device_attach ctl.controller ~mk_device:(fun vm ->
            if Node.has_ib (Vm.host vm) then
              Some (Device.make ~tag ~pci_addr:host Device.Ib_hca)
            else None))
  in
  ctl.attach <- Time.add ctl.attach span

let migration ctl ~src ~dst =
  if List.length src <> List.length dst then
    invalid_arg "Script.migration: hostlist length mismatch";
  let cluster = Ninja.cluster ctl.ninja in
  let moves =
    List.map2
      (fun s d -> (Cluster.find_node cluster s, Cluster.find_node cluster d))
      src dst
  in
  let span =
    timed ctl (fun () ->
        ignore
          (Controller.run_agents ctl.controller (fun vm ->
               match
                 List.find_opt (fun (s, _) -> s.Node.id = (Vm.host vm).Node.id) moves
               with
               | Some (_, d) ->
                 [ Qmp.Migrate { dst = d; transport = Migration.Tcp; mode = Migration.Precopy } ]
               | None -> [])))
  in
  ctl.migration <- Time.add ctl.migration span

let signal ctl =
  let span =
    timed ctl (fun () ->
        Controller.signal ctl.controller;
        match ctl.complete with
        | Some ivar ->
          Runtime.await_checkpoint_complete ivar;
          ctl.complete <- None;
          ctl.linkup <-
            Time.add ctl.linkup (Runtime.last_linkup_wait (Ninja.runtime ctl.ninja))
        | None -> ())
  in
  (* The signal-to-resume gap is link-up plus reconstruction, already
     accounted; nothing else to attribute here. *)
  ignore span

let quit ctl =
  {
    Breakdown.coordination = ctl.coordination;
    detach = ctl.detach;
    migration = ctl.migration;
    attach = ctl.attach;
    linkup = ctl.linkup;
    retry = Time.zero;
    total = Time.diff (Sim.now ctl.sim) ctl.started;
  }
