open Ninja_engine
open Ninja_hardware
open Ninja_vmm

type driver = { dev : Device.t; mutable link : Link_state.t }

type t = {
  vm : Vm.t;
  sim : Sim.t;
  mutable bound : driver list;
  mutable link_waiters : (unit -> unit) list;
  mutable link_hooks : (driver -> unit) list;
}

let drivers t = t.bound

let device d = d.dev

let link d = d.link

let find_driver t ~kind = List.find_opt (fun d -> d.dev.Device.kind = kind) t.bound

let notify_link t d =
  List.iter (fun f -> f d) (List.rev t.link_hooks);
  let waiters = List.rev t.link_waiters in
  t.link_waiters <- [];
  List.iter (fun wake -> wake ()) waiters

let set_link t d state =
  if not (Link_state.equal d.link state) then begin
    d.link <- state;
    notify_link t d
  end

let bind t dev ~initial_link =
  let d = { dev; link = initial_link } in
  t.bound <- t.bound @ [ d ];
  (match initial_link with
  | Link_state.Polling ->
    (* Port training: IB takes ~30 s, Ethernet is effectively instant. *)
    Sim.spawn t.sim ~name:"linkup" (fun () ->
        Sim.sleep (Device.linkup_time dev.Device.kind);
        if List.memq d t.bound then set_link t d Link_state.Active)
  | Link_state.Active -> notify_link t d
  | Link_state.Down -> ());
  d

let unbind t (dev : Device.t) =
  match List.find_opt (fun d -> String.equal d.dev.Device.tag dev.tag) t.bound with
  | None -> ()
  | Some d ->
    t.bound <- List.filter (fun d' -> d' != d) t.bound;
    set_link t d Link_state.Down

let boot vm =
  let cluster = Vm.cluster vm in
  let t =
    {
      vm;
      sim = Cluster.sim cluster;
      bound = [];
      link_waiters = [];
      link_hooks = [];
    }
  in
  (* Devices present at boot have finished training by the time userspace
     runs. *)
  List.iter (fun dev -> ignore (bind t dev ~initial_link:Link_state.Active)) (Vm.devices vm);
  Vm.on_device_added vm (fun dev -> ignore (bind t dev ~initial_link:Link_state.Polling));
  Vm.on_device_removed vm (fun dev -> unbind t dev);
  t

let usable_kinds t =
  t.bound
  |> List.filter (fun d -> Link_state.equal d.link Link_state.Active)
  |> List.map (fun d -> d.dev.Device.kind)
  |> List.sort_uniq (fun a b ->
         match Float.compare (Device.bandwidth b) (Device.bandwidth a) with
         | 0 -> compare a b
         | c -> c)

let await_link_active t kind =
  let ready () =
    match find_driver t ~kind with
    | Some d -> Link_state.equal d.link Link_state.Active
    | None -> false
  in
  while not (ready ()) do
    Sim.suspend (fun resume -> t.link_waiters <- resume :: t.link_waiters)
  done

let on_link_change t f = t.link_hooks <- f :: t.link_hooks
