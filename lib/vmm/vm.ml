open Ninja_engine
open Ninja_hardware

type state = Running | Paused

type t = {
  name : string;
  cluster : Cluster.t;
  vcpus : int;
  memory : Memory.t;
  mutable host : Node.t;
  mutable devices : Device.t list;
  mutable state : state;
  mutable pause_waiters : (unit -> unit) list;
  migration_lock : Semaphore.t;
  mutable slowdown : float;
  (* Postcopy failure semantics: once a postcopy switchover commits the
     VM's only copy of already-pulled state is at the destination, so a
     rollback-to-source is impossible; if the source then dies before
     the drain completes, the VM is lost for good. *)
  mutable switchover_committed : bool;
  mutable lost : bool;
  mutable added_hooks : (Device.t -> unit) list;
  mutable removed_hooks : (Device.t -> unit) list;
}

let default_os_resident = 2.3e9

let name t = t.name

let cluster t = t.cluster

let host t = t.host

let vcpus t = t.vcpus

let memory t = t.memory

let state t = t.state

let devices t = t.devices

let find_device t ~tag = List.find_opt (fun (d : Device.t) -> String.equal d.tag tag) t.devices

let has_bypass_device t = List.exists (fun (d : Device.t) -> Device.is_bypass d.kind) t.devices

let on_device_added t f = t.added_hooks <- f :: t.added_hooks

let on_device_removed t f = t.removed_hooks <- f :: t.removed_hooks

let attach_device t (d : Device.t) =
  (match find_device t ~tag:d.tag with
  | Some _ -> invalid_arg (Printf.sprintf "Vm.attach_device: duplicate tag %s" d.tag)
  | None -> ());
  t.devices <- t.devices @ [ d ];
  Probe.emit (Cluster.probes t.cluster)
    (Probe.Device_add { vm = t.name; tag = d.tag; bypass = Device.is_bypass d.kind });
  List.iter (fun f -> f d) (List.rev t.added_hooks)

let detach_device t ~tag =
  match find_device t ~tag with
  | None -> raise Not_found
  | Some d ->
    t.devices <- List.filter (fun (d' : Device.t) -> not (String.equal d'.tag tag)) t.devices;
    Probe.emit (Cluster.probes t.cluster) (Probe.Device_del { vm = t.name; tag });
    List.iter (fun f -> f d) (List.rev t.removed_hooks);
    d

let create cluster ~name ~host ~vcpus ~mem_bytes ?(os_resident_bytes = default_os_resident) () =
  if vcpus <= 0 then invalid_arg "Vm.create: vcpus must be positive";
  if mem_bytes > host.Node.mem_bytes then invalid_arg "Vm.create: VM larger than host memory";
  let memory = Memory.create ~total_bytes:mem_bytes in
  (* The OS resident set is non-zero from boot and stays clean unless the
     guest touches it again. *)
  let os = Memory.alloc memory ~bytes:(Float.min os_resident_bytes mem_bytes) in
  Memory.write_all memory os;
  Memory.clear_dirty memory;
  let t =
    {
      name;
      cluster;
      vcpus;
      memory;
      host;
      devices = [];
      state = Running;
      pause_waiters = [];
      migration_lock = Semaphore.create 1;
      slowdown = 1.0;
      switchover_committed = false;
      lost = false;
      added_hooks = [];
      removed_hooks = [];
    }
  in
  Cluster.register_vm cluster ~name ~node:host.Node.id ~bytes:mem_bytes;
  attach_device t (Device.make ~tag:"virtio0" ~pci_addr:"00:03.0" Device.Virtio_net);
  t

let migration_lock t = t.migration_lock

let switchover_committed t = t.switchover_committed

let set_switchover_committed t v = t.switchover_committed <- v

let is_lost t = t.lost

let mark_lost t = t.lost <- true

let pause t = if t.state = Running then t.state <- Paused

let resume t =
  if t.state = Paused then begin
    t.state <- Running;
    let waiters = List.rev t.pause_waiters in
    t.pause_waiters <- [];
    List.iter (fun wake -> wake ()) waiters
  end

let set_host t dst =
  let src = t.host in
  t.host <- dst;
  Cluster.move_vm t.cluster ~name:t.name ~node:dst.Node.id;
  Probe.emit (Cluster.probes t.cluster)
    (Probe.Vm_migrated
       { vm = t.name; src = src.Node.name; dst = dst.Node.name; bypass = has_bypass_device t })

let await_running t =
  while t.state = Paused do
    Sim.suspend (fun resume -> t.pause_waiters <- resume :: t.pause_waiters)
  done

let set_compute_slowdown t f =
  if not (f >= 1.0) then invalid_arg "Vm.set_compute_slowdown: factor must be >= 1";
  t.slowdown <- f

let compute_slowdown t = t.slowdown

let compute ?(chunk = 1.0) t ~core_seconds =
  if core_seconds < 0.0 then invalid_arg "Vm.compute: negative work";
  let remaining = ref core_seconds in
  while !remaining > 0.0 do
    await_running t;
    let work = Float.min chunk !remaining in
    Ps_resource.consume t.host.Node.cpu ~demand:1.0 ~work:(work *. t.slowdown);
    remaining := !remaining -. work
  done

let guest_write t region ~offset ~bytes ~bandwidth =
  if not (bandwidth > 0.0) then invalid_arg "Vm.guest_write: bandwidth must be positive";
  let chunk_bytes = 256.0 *. 1024.0 *. 1024.0 in
  let written = ref 0.0 in
  while !written < bytes do
    await_running t;
    let n = Float.min chunk_bytes (bytes -. !written) in
    Ps_resource.consume t.host.Node.cpu ~demand:1.0 ~work:(n /. bandwidth *. t.slowdown);
    Memory.write t.memory region ~offset:(offset +. !written) ~bytes:n;
    written := !written +. n
  done
