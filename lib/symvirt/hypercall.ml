open Ninja_engine
open Ninja_hardware
open Ninja_vmm

type t = {
  vm : Vm.t;
  mutable waiters : (unit -> unit) list;
  mutable arrival_watchers : (unit -> unit) list; (* one-shot *)
}

let create vm = { vm; waiters = []; arrival_watchers = [] }

let waiting t = List.length t.waiters

let guest_wait t =
  Sim.sleep Calibration.symvirt_hypercall_overhead;
  Sim.suspend (fun resume ->
      t.waiters <- resume :: t.waiters;
      let watchers = List.rev t.arrival_watchers in
      t.arrival_watchers <- [];
      List.iter (fun wake -> wake ()) watchers)

let await_waiters t n =
  while waiting t < n do
    Sim.suspend (fun resume -> t.arrival_watchers <- resume :: t.arrival_watchers)
  done

let host_signal t =
  let waiters = List.rev t.waiters in
  t.waiters <- [];
  List.iter (fun wake -> wake ()) waiters
