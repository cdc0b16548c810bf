open Ninja_engine
open Ninja_flownet
open Ninja_hardware

open Ninja_faults

exception Bypass_device_attached of string

exception Aborted of string

exception Postcopy_lost of string

type transport = Tcp | Rdma

type mode = Precopy | Postcopy

let mode_name = function Precopy -> "precopy" | Postcopy -> "postcopy"

let mode_of_string = function
  | "precopy" -> Ok Precopy
  | "postcopy" -> Ok Postcopy
  | s -> Error (Printf.sprintf "unknown migration mode %S (expected precopy or postcopy)" s)

type stats = {
  duration : Time.span;
  rounds : int;
  transferred_bytes : float;
  scanned_zero_bytes : float;
  downtime : Time.span;
  pulls : Time.span list;
}

let sender_rate = function
  | Tcp -> Calibration.transfer_rate
  | Rdma -> Calibration.rdma_transfer_rate

let sender_cpu_demand = function
  | Tcp -> Calibration.migration_cpu_demand
  | Rdma -> 0.15 (* RDMA offloads the copy; §V. *)

let precopy_stall_duration = Time.sec 3

let postcopy_hot_set_bytes = 256.0 *. 1024.0 *. 1024.0

let postcopy_fault_slowdown = 2.5

(* One prioritized pull per chunk: the guest's demand faults front-run the
   background prefetcher, so each chunk is one rated flow on the fabric
   and one [migration/pull] probe for the checker/telemetry. *)
let postcopy_pull_chunk_bytes = 256.0 *. 1024.0 *. 1024.0

(* Shared sender machinery: a private capacity hop modelling the
   single-threaded QEMU sender (§V: one core saturated, < 1.3 Gb/s wire),
   in series with the shared Ethernet fabric path, plus the sender
   thread's CPU load on the source host. [stop_sender] retires both. *)
type sender = {
  fabric : Fabric.t;
  link : Fabric.link;
  route : Fabric.link list;
  cpu : Ps_resource.t;
  cpu_task : Ps_resource.task;
  mutable sent : float;
}

let start_sender vm ~src ~dst ~transport =
  let cluster = Vm.cluster vm in
  let fabric = Cluster.fabric cluster in
  let sender_link =
    Fabric.add_link fabric
      ~name:(Printf.sprintf "%s.sender" (Vm.name vm))
      ~capacity:(sender_rate transport)
  in
  let path = Cluster.route cluster ~net:Cluster.Eth ~src ~dst in
  (* Work value is just "longer than any migration"; the task is cancelled
     when the migration completes. *)
  let cpu_task =
    Ps_resource.start src.Node.cpu ~demand:(sender_cpu_demand transport) ~work:1e8
  in
  {
    fabric;
    link = sender_link;
    route = sender_link :: path;
    cpu = src.Node.cpu;
    cpu_task;
    sent = 0.0;
  }

let send sender vm bytes =
  if bytes > 0.0 then begin
    sender.sent <- sender.sent +. bytes;
    Fabric.transfer (Cluster.fabric (Vm.cluster vm)) ~route:sender.route ~bytes
  end

let stop_sender sender =
  Ps_resource.cancel sender.cpu sender.cpu_task;
  Fabric.remove_link sender.fabric sender.link

(* ------------------------------------------------------------------ *)

let precopy vm ~dst ~transport =
  let cluster = Vm.cluster vm in
  let sim = Cluster.sim cluster in
  let src = Vm.host vm in
  let sender = start_sender vm ~src ~dst ~transport in
  let memory = Vm.memory vm in
  let was_running = Vm.state vm = Vm.Running in
  (* Injected fault gate, evaluated at each round boundary: a stall burns
     extra transfer time; an abort tears the attempt down (the VM keeps
     its source host and pre-migration run state — the destination simply
     discards the partial image). *)
  let injector = Cluster.injector cluster in
  let fault_gate () =
    if Injector.enabled injector then begin
      if Injector.fire injector Injector.Precopy_stall ~site:(Vm.name vm) then
        Sim.sleep precopy_stall_duration;
      if Injector.fire injector Injector.Precopy_abort ~site:(Vm.name vm) then begin
        stop_sender sender;
        if was_running && Vm.state vm = Vm.Paused then Vm.resume vm;
        raise
          (Aborted (Printf.sprintf "%s: precopy to %s aborted" (Vm.name vm) dst.Node.name))
      end
    end
  in
  fault_gate ();
  (* Round 0: full walk. Zero pages cost scan time only. *)
  let zero = Memory.zero_bytes memory in
  Memory.clear_dirty memory;
  send sender vm (Memory.nonzero_bytes memory);
  if zero > 0.0 then Sim.sleep (Time.of_sec_f (zero /. Calibration.zero_scan_rate));
  let downtime_budget_bytes =
    Time.to_sec_f Calibration.migration_downtime_target *. sender_rate transport
  in
  let rec rounds n =
    fault_gate ();
    let dirty = Memory.dirty_bytes memory in
    if dirty <= downtime_budget_bytes || n >= Calibration.migration_max_rounds then begin
      (* Stop-and-copy. *)
      Vm.pause vm;
      Memory.clear_dirty memory;
      let t0 = Sim.now sim in
      send sender vm dirty;
      let probes = Cluster.probes cluster in
      if Probe.active probes then
        Probe.emit probes
          (Probe.Span_note
             { name = "stop-and-copy"; cat = "vmm"; proc = src.Node.name;
               thread = Vm.name vm; start = t0; args = [] });
      (n + 1, Time.diff (Sim.now sim) t0)
    end
    else begin
      Memory.clear_dirty memory;
      send sender vm dirty;
      rounds (n + 1)
    end
  in
  let rounds, downtime = rounds 1 in
  stop_sender sender;
  Vm.set_host vm dst;
  (* Restore the pre-migration run state: a VM frozen at a SymVirt fence
     must stay frozen until the controller signals it. *)
  if was_running then Vm.resume vm;
  (rounds, zero, downtime, sender.sent, [])

let postcopy vm ~dst ~transport =
  let cluster = Vm.cluster vm in
  let sim = Cluster.sim cluster in
  let src = Vm.host vm in
  let sender = start_sender vm ~src ~dst ~transport in
  let memory = Vm.memory vm in
  let was_running = Vm.state vm = Vm.Running in
  let injector = Cluster.injector cluster in
  let probes = Cluster.probes cluster in
  (* Pre-commit fault gate, mirroring precopy's round gate: until the
     switchover commits the destination holds no unique state, so an
     injected abort is still a clean return-to-source. *)
  if Injector.enabled injector then begin
    if Injector.fire injector Injector.Precopy_stall ~site:(Vm.name vm) then
      Sim.sleep precopy_stall_duration;
    if Injector.fire injector Injector.Precopy_abort ~site:(Vm.name vm) then begin
      stop_sender sender;
      raise
        (Aborted
           (Printf.sprintf "%s: postcopy to %s aborted before switchover" (Vm.name vm)
              dst.Node.name))
    end
  end;
  (* Stop-and-switch: push vCPU state plus a small hot set, flip hosts.
     From here on the destination owns the VM; there is no way back. *)
  Vm.pause vm;
  Memory.clear_dirty memory;
  Memory.begin_postcopy memory;
  let page = float_of_int Memory.page_size in
  let t0 = Sim.now sim in
  let hot_pages =
    Memory.pull_pages memory ~max_pages:(int_of_float (postcopy_hot_set_bytes /. page))
  in
  send sender vm (float_of_int hot_pages *. page);
  let downtime = Time.diff (Sim.now sim) t0 in
  if Probe.active probes then
    Probe.emit probes
      (Probe.Span_note
         { name = "stop-and-switch"; cat = "vmm"; proc = src.Node.name; thread = Vm.name vm;
           start = t0; args = [] });
  Vm.set_host vm dst;
  Vm.set_switchover_committed vm true;
  if was_running then Vm.resume vm;
  (* Demand-paged drain: the guest runs at the destination under the
     remote-fault slowdown while prioritized pulls move the remaining
     pages chunk by chunk. Pages the guest writes meanwhile materialise
     at the destination (Memory marks them resident), so each page moves
     at most once. The source must stay alive for the whole drain: its
     death at a pull boundary loses the VM. *)
  let chunk_pages = max 1 (int_of_float (postcopy_pull_chunk_bytes /. page)) in
  let pulls = ref [] in
  let lost = ref false in
  Vm.set_compute_slowdown vm postcopy_fault_slowdown;
  while (not !lost) && Memory.remote_bytes memory > 0.0 do
    if
      Injector.enabled injector
      && Injector.fire injector Injector.Node_death ~site:src.Node.name
    then Cluster.kill_node cluster src;
    if not (Cluster.node_alive cluster src) then lost := true
    else begin
      let t_pull = Sim.now sim in
      let fresh = Memory.pull_pages memory ~max_pages:chunk_pages in
      let bytes = float_of_int fresh *. page in
      send sender vm bytes;
      pulls := Time.diff (Sim.now sim) t_pull :: !pulls;
      if Probe.active probes then
        Probe.emit probes
          (Probe.Migration_pull
             { vm = Vm.name vm; bytes; fresh_pages = fresh; dup_pages = 0;
               remaining = Memory.remote_bytes memory })
    end
  done;
  Vm.set_compute_slowdown vm 1.0;
  stop_sender sender;
  if !lost then begin
    (* The remote pages died with the source: no host has a complete
       image any more. Freeze what remains and report the loss. *)
    let missing = Memory.remote_bytes memory in
    Vm.pause vm;
    Vm.mark_lost vm;
    Vm.set_switchover_committed vm false;
    Memory.end_postcopy memory;
    if Probe.active probes then
      Probe.emit probes
        (Probe.Migration_lost
           { vm = Vm.name vm; src = src.Node.name; dst = dst.Node.name; missing });
    raise
      (Postcopy_lost
         (Printf.sprintf "%s: source %s died mid-postcopy (%.0f bytes unrecoverable)"
            (Vm.name vm) src.Node.name missing))
  end;
  Vm.set_switchover_committed vm false;
  Memory.end_postcopy memory;
  (* Writes that landed during the pull went straight to the destination;
     nothing is ever re-sent. *)
  Memory.clear_dirty memory;
  (1, 0.0, downtime, sender.sent, List.rev !pulls)

let migrate vm ~dst ?(transport = Tcp) ?(mode = Precopy) () =
  if Vm.has_bypass_device vm then
    raise
      (Bypass_device_attached
         (Printf.sprintf "%s: cannot migrate with VMM-bypass device attached" (Vm.name vm)));
  if Vm.is_lost vm then
    raise
      (Aborted
         (Printf.sprintf "%s: VM was lost by an earlier postcopy failure" (Vm.name vm)));
  let cluster = Vm.cluster vm in
  let sim = Cluster.sim cluster in
  let injector = Cluster.injector cluster in
  if
    Injector.enabled injector
    && Injector.fire injector Injector.Node_death ~site:dst.Node.name
  then Cluster.kill_node cluster dst;
  if not (Cluster.node_alive cluster dst) then
    raise
      (Cluster.Node_dead
         (Printf.sprintf "%s: destination %s is dead" (Vm.name vm) dst.Node.name));
  Semaphore.with_permit (Vm.migration_lock vm) @@ fun () ->
  let src = Vm.host vm in
  let started = Sim.now sim in
  let mode_name = mode_name mode in
  let probes = Cluster.probes cluster in
  if Probe.active probes then
    Probe.emit probes
      (Probe.Span_begin
         { name = mode_name; cat = "vmm"; proc = src.Node.name; thread = Vm.name vm;
           args = [ ("dst", dst.Node.name) ] });
  let rounds, zero, downtime, sent, pulls =
    (* The end mirror must fire even when an injected fault aborts the
       attempt mid-copy, or the recorder's track would stay open. *)
    Fun.protect
      ~finally:(fun () ->
        if Probe.active probes then
          Probe.emit probes
            (Probe.Span_end
               { name = mode_name; proc = src.Node.name; thread = Vm.name vm; args = [] }))
      (fun () ->
        match mode with
        | Precopy -> precopy vm ~dst ~transport
        | Postcopy -> postcopy vm ~dst ~transport)
  in
  let duration = Time.diff (Sim.now sim) started in
  if Probe.active probes then
    Probe.emit probes
      (Probe.Migration_done
         { vm = Vm.name vm; src = src.Node.name; dst = dst.Node.name; mode = mode_name;
           bytes = sent; rounds; downtime });
  { duration; rounds; transferred_bytes = sent; scanned_zero_bytes = zero; downtime; pulls }
