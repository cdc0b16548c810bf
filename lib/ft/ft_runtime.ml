open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_mpi
open Ninja_symvirt
open Ninja_core

type spec = {
  procs_per_vm : int;
  iterations : int;
  checkpoint_every : int;
  step : Mpi.ctx -> int -> unit;
}

type t = {
  cluster : Cluster.t;
  sim : Sim.t;
  store : Snapshot.store;
  spec : spec;
  mutable ninja_ : Ninja.t;
  mutable incarnation : int;
  mutable aborting : bool;
  mutable last_snap : (int * Snapshot.t list) option;
  mutable completed : int;
  exec_counts : (int, int) Hashtbl.t;
  finished : unit Ivar.t;
  mutable progress : int Channel.t; (* rank 0 -> checkpoint driver *)
  ckpt_lock : Semaphore.t; (* serialises driver checkpoints against kills *)
}

let ninja t = t.ninja_

let incarnation t = t.incarnation

let completed_iterations t = t.completed

let last_checkpoint t = t.last_snap

let executions_of t i = Option.value ~default:0 (Hashtbl.find_opt t.exec_counts i)

let is_finished t = Ivar.is_full t.finished

(* The job body of one incarnation, resuming after [start]. Rank 0 reports
   progress to the checkpoint driver through the incarnation's channel. *)
let body t ~start ~progress ctx =
  for i = start + 1 to t.spec.iterations do
    t.spec.step ctx i;
    Mpi.checkpoint_point ctx;
    if Mpi.rank ctx = 0 then begin
      Hashtbl.replace t.exec_counts i (executions_of t i + 1);
      if i > t.completed then t.completed <- i;
      if i = t.spec.iterations then ignore (Ivar.fill_if_empty t.finished ());
      Channel.send progress i
    end
  done

(* Periodic coordinated snapshots: every [checkpoint_every] iterations of
   this incarnation, fence the job and save a VM image set. The recorded
   iteration comes from the fence epoch, since processes may advance a
   step between the trigger and the fence. *)
let checkpoint_driver t ~start ~progress =
  let my_incarnation = t.incarnation in
  let continue_ () =
    t.incarnation = my_incarnation && (not t.aborting) && not (is_finished t)
  in
  let rec loop () =
    if continue_ () then begin
      let i = Channel.recv progress in
      (* A negative value is the shutdown sentinel from a kill. *)
      if i >= 0 && continue_ () && i mod t.spec.checkpoint_every = 0
         && i < t.spec.iterations
      then
        Semaphore.with_permit t.ckpt_lock (fun () ->
            if continue_ () then begin
              let snaps =
                Ninja.checkpoint_to_store t.ninja_ t.store
                  ~name_prefix:(Printf.sprintf "inc%d-iter%d" t.incarnation i)
              in
              let epoch =
                Rank.last_checkpoint_epoch (Runtime.job (Ninja.runtime t.ninja_))
              in
              t.last_snap <- Some (start + epoch, snaps)
            end);
      loop ()
    end
  in
  loop ()

let launch_incarnation t ~start ~vms_to_resume =
  let progress = Channel.create () in
  t.progress <- progress;
  ignore
    (Ninja.launch t.ninja_ ~procs_per_vm:t.spec.procs_per_vm (body t ~start ~progress));
  Ninja.set_abort_check t.ninja_ (fun () -> t.aborting);
  List.iter Vm.resume vms_to_resume;
  Sim.spawn t.sim ~name:"ft-driver" (fun () -> checkpoint_driver t ~start ~progress)

let start cluster ~store ~hosts spec =
  if spec.checkpoint_every <= 0 then invalid_arg "Ft_runtime.start: checkpoint_every";
  if spec.iterations <= 0 then invalid_arg "Ft_runtime.start: iterations";
  let ninja_ = Ninja.setup cluster ~hosts () in
  let t =
    {
      cluster;
      sim = Cluster.sim cluster;
      store;
      spec;
      ninja_;
      incarnation = 0;
      aborting = false;
      last_snap = None;
      completed = 0;
      exec_counts = Hashtbl.create 64;
      finished = Ivar.create ();
      progress = Channel.create ();
      ckpt_lock = Semaphore.create 1;
    }
  in
  launch_incarnation t ~start:0 ~vms_to_resume:[];
  t

let kill_current_incarnation t =
  (* Wait out any in-flight periodic checkpoint, then fence everyone and
     let the coordinators raise Job_aborted. *)
  Semaphore.acquire t.ckpt_lock;
  t.aborting <- true;
  let rt = Ninja.runtime t.ninja_ in
  ignore (Runtime.request_checkpoint rt);
  let members =
    List.map
      (fun (n : Ninja.vnode) ->
        { Controller.vm = n.vm; endpoint = n.endpoint; procs = Ninja.procs_per_vm t.ninja_ })
      (Ninja.vnodes t.ninja_)
  in
  let ctl = Controller.create t.cluster ~members in
  Controller.wait_all ctl;
  Controller.signal ctl;
  Runtime.wait rt;
  (* Retire this incarnation's checkpoint driver: bump the incarnation
     first so the driver's continue-check fails whenever its wakeup event
     actually runs, then unblock it. *)
  t.incarnation <- t.incarnation + 1;
  Channel.send t.progress (-1);
  t.aborting <- false;
  Semaphore.release t.ckpt_lock

let fail_and_restart t ~new_hosts =
  match t.last_snap with
  | None -> failwith "Ft_runtime.fail_and_restart: no checkpoint on stable storage yet"
  | Some (iter, snaps) ->
    if List.length new_hosts <> List.length snaps then
      invalid_arg "Ft_runtime.fail_and_restart: host/snapshot count mismatch";
    kill_current_incarnation t;
    (* Restore the VM images on the replacement hosts... *)
    let vms =
      List.map2 (fun snap host -> Snapshot.restore t.store snap ~host) snaps new_hosts
    in
    t.ninja_ <- Ninja.of_vms t.cluster ~vms;
    (* ...re-attach bypass HCAs where the new hardware has them (the guest
       pays link training before openib comes back). *)
    List.iter2
      (fun vm host ->
        if Node.has_ib host then
          Vm.attach_device vm (Device.hca ()))
      vms new_hosts;
    launch_incarnation t ~start:iter ~vms_to_resume:vms

let await t =
  Ivar.read t.finished;
  Ninja.wait_job t.ninja_
