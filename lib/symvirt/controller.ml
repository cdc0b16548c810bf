open Ninja_engine
open Ninja_hardware
open Ninja_vmm

type member = { vm : Vm.t; endpoint : Hypercall.t; procs : int }

type t = { cluster : Cluster.t; members : member list }

exception Agent_failure of string

let create cluster ~members =
  List.iter
    (fun m ->
      if m.procs <= 0 then invalid_arg "Controller.create: procs must be positive")
    members;
  { cluster; members }

let probe_fence t payload =
  let probes = Cluster.probes t.cluster in
  if Probe.active probes then
    Probe.emit probes (payload (List.map (fun m -> Vm.name m.vm) t.members))

let wait_all t =
  List.iter (fun m -> Hypercall.await_waiters m.endpoint m.procs) t.members;
  List.iter (fun m -> Vm.pause m.vm) t.members;
  probe_fence t (fun vms -> Probe.Fence_enter { id = ""; vms })

let signal t =
  List.iter
    (fun m ->
      Vm.resume m.vm;
      Hypercall.host_signal m.endpoint)
    t.members;
  probe_fence t (fun vms -> Probe.Fence_release { id = ""; vms })

(* One agent fiber per VM, driving its monitor; the caller blocks on all of
   them (the paper's controller joins its agent threads). An armed
   [Agent_crash] fault kills the agent before it issues anything — its
   command list is untouched, so a fresh agent can safely re-run it. *)
let run_agents_results t commands_for =
  let sim = Cluster.sim t.cluster in
  let injector = Cluster.injector t.cluster in
  let jobs =
    List.map
      (fun m ->
        let done_ = Ivar.create () in
        let commands = commands_for m.vm in
        Sim.spawn sim ~name:(Printf.sprintf "agent-%s" (Vm.name m.vm)) (fun () ->
            let responses =
              if
                commands <> []
                && Ninja_faults.Injector.enabled injector
                && Ninja_faults.Injector.fire injector Ninja_faults.Injector.Agent_crash
                     ~site:(Vm.name m.vm)
              then [ Qmp.Error "agent crashed before issuing its commands" ]
              else List.map (fun c -> Qmp.execute m.vm c) commands
            in
            Ivar.fill done_ responses);
        (m.vm, done_))
      t.members
  in
  List.map (fun (vm, done_) -> (vm, Ivar.read done_)) jobs

let first_error responses =
  List.find_map (function Qmp.Error msg -> Some msg | _ -> None) responses

let run_agents t commands_for =
  let results = run_agents_results t commands_for in
  List.iter
    (fun (vm, responses) ->
      match first_error responses with
      | Some msg -> raise (Agent_failure (Printf.sprintf "%s: %s" (Vm.name vm) msg))
      | None -> ())
    results;
  results

let device_attach t ~mk_device =
  ignore
    (run_agents t (fun vm ->
         match mk_device vm with
         | Some device -> [ Qmp.Device_add { device; noise = 1.0 } ]
         | None -> []))
