open Ninja_engine
open Ninja_hardware

type t = {
  name : string;
  image_bytes : float;
  total_bytes : float;
  vcpus : int;
  vm_name : string;
}

type store = { cluster : Cluster.t; mutable snapshots : t list }

let create_store cluster = { cluster; snapshots = [] }

(* NFSv3 over the 10 GbE network. *)
let nfs_bandwidth = 0.4e9

let stream bytes = Sim.sleep (Time.of_sec_f (bytes /. nfs_bandwidth))

let save store vm ~name =
  let was_running = Vm.state vm = Vm.Running in
  Vm.pause vm;
  let image_bytes = Memory.nonzero_bytes (Vm.memory vm) in
  stream image_bytes;
  let snap =
    {
      name;
      image_bytes;
      total_bytes = Memory.total_bytes (Vm.memory vm);
      vcpus = Vm.vcpus vm;
      vm_name = Vm.name vm;
    }
  in
  store.snapshots <- snap :: store.snapshots;
  if was_running then Vm.resume vm;
  snap

let restore store snap ~host =
  stream snap.image_bytes;
  let vm =
    Vm.create store.cluster ~name:snap.vm_name ~host ~vcpus:snap.vcpus
      ~mem_bytes:snap.total_bytes ~os_resident_bytes:snap.image_bytes ()
  in
  Vm.pause vm;
  vm

let find store ~name = List.find_opt (fun s -> String.equal s.name name) store.snapshots

let image_bytes t = t.image_bytes
