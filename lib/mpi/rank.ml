open Ninja_engine
open Ninja_guestos
open Ninja_hardware
open Ninja_vmm

type rendezvous = { cts : unit Ivar.t; data_done : unit Ivar.t }

(* Envelopes are delivered into the receiver's matching engine in the
   sender's program order (synchronously at send time), which is what
   gives MPI its per-(source, tag) non-overtaking guarantee; the wire time
   is charged on the payload path ([`Eager] carries an "data arrived"
   ivar, rendezvous streams after the CTS). *)
type delivery = {
  d_src : int;
  d_tag : int;
  d_bytes : float;
  d_protocol : [ `Eager of unit Ivar.t | `Rendezvous of rendezvous ];
}

type posted = { want_src : int option; want_tag : int option; got : delivery Ivar.t }

(* A matching queue: a FIFO out of which the oldest entry that matches
   is taken. A linked list with a pointer to its last cell, so neither
   appending nor taking copies it. *)
type 'a cell = Nil | Cell of { item : 'a; mutable next : 'a cell }

type 'a queue = { mutable first : 'a cell; mutable last : 'a cell }

type ft_hooks = { on_checkpoint : proc -> unit; on_continue : proc -> unit }

and job = {
  jcluster : Cluster.t;
  sim : Sim.t;
  mutable jprocs : proc array;
  jnp : int;
  continue_like_restart : bool;
  ft_hooks : ft_hooks option;
  (* CRCP / checkpoint state for the current generation *)
  mutable ckpt_requested : bool;
  mutable ckpt_target : int;
  mutable ckpt_entered : int;
  mutable ckpt_release : unit Ivar.t;
  mutable ckpt_done : int;
  mutable ckpt_complete : unit Ivar.t;
  mutable jinflight : int;
  mutable linkup_waits : Time.span list;
  finished : unit Ivar.t;
  mutable running_ranks : int;
  mutable inited : int;
  init_done : unit Ivar.t;
}

and proc = {
  prank : int;
  pjob : job;
  pvm : Vm.t;
  pguest : Guest.t;
  mutable points_passed : int;
  mutable spin_depth : int;
  mutable spin_task : Ps_resource.task option;
  mutable pbtls : Btl.kind list;
  (* Per-peer transport choice, fixed at (re)construction time like Open
     MPI's add_procs: a device vanishing underneath it is a hard failure,
     not a silent re-route. *)
  peer_kind : Btl.kind option array;
  posted : posted queue;
  unexpected : delivery queue;
}

exception No_route of string

exception Job_aborted

(* ------------------------------------------------------------------ *)
(* Construction *)

let make_job cluster ~members ~procs_per_vm ~continue_like_restart ~ft_hooks =
  if members = [] then invalid_arg "Rank.make_job: no VMs";
  if procs_per_vm <= 0 then invalid_arg "Rank.make_job: procs_per_vm must be positive";
  let np = List.length members * procs_per_vm in
  let job =
    {
      jcluster = cluster;
      sim = Cluster.sim cluster;
      jprocs = [||];
      jnp = np;
      continue_like_restart;
      ft_hooks;
      ckpt_requested = false;
      ckpt_target = 0;
      ckpt_entered = 0;
      ckpt_release = Ivar.create ();
      ckpt_done = 0;
      ckpt_complete = Ivar.create ();
      jinflight = 0;
      linkup_waits = [];
      finished = Ivar.create ();
      running_ranks = 0;
      inited = 0;
      init_done = Ivar.create ();
    }
  in
  let members = Array.of_list members in
  job.jprocs <-
    Array.init np (fun r ->
        let vm, guest = members.(r / procs_per_vm) in
        {
          prank = r;
          pjob = job;
          pvm = vm;
          pguest = guest;
          points_passed = 0;
          spin_depth = 0;
          spin_task = None;
          pbtls = [];
          peer_kind = Array.make np None;
          posted = { first = Nil; last = Nil };
          unexpected = { first = Nil; last = Nil };
        });
  job

let procs job = Array.to_list job.jprocs

let cluster job = job.jcluster

let job_finished job = job.finished

let rank_started job = job.running_ranks <- job.running_ranks + 1

let rank_finished job =
  job.running_ranks <- job.running_ranks - 1;
  if job.running_ranks = 0 then Ivar.fill job.finished ()

let rank p = p.prank

let size p = p.pjob.jnp

let vm p = p.pvm

let job p = p.pjob

let btls p = p.pbtls

let inflight job = job.jinflight

(* ------------------------------------------------------------------ *)
(* BTL module (re)construction *)

let has_ib_attached p =
  List.exists (fun (d : Device.t) -> d.Device.kind = Device.Ib_hca) (Vm.devices p.pvm)

(* Build the set of transports this process can use, waiting for link
   training where needed (the "confirm link-up" step of Fig. 4). Returns
   the time spent waiting. *)
let construct_btls p =
  let sim = p.pjob.sim in
  let t0 = Sim.now sim in
  let with_ib =
    if has_ib_attached p then begin
      Guest.await_link_active p.pguest Device.Ib_hca;
      [ Btl.Openib ]
    end
    else []
  in
  let wait = Time.diff (Sim.now sim) t0 in
  p.pbtls <- List.sort Btl.compare_priority (Btl.Sm :: Btl.Tcp :: with_ib);
  Array.fill p.peer_kind 0 (Array.length p.peer_kind) None;
  wait

(* MPI_Init: construct modules (possibly waiting for link training), then
   synchronise — no rank may communicate before every peer has a transport
   table. *)
let init_btls p =
  ignore (construct_btls p);
  let job = p.pjob in
  job.inited <- job.inited + 1;
  if job.inited = job.jnp then Ivar.fill job.init_done ();
  Ivar.read job.init_done

(* ------------------------------------------------------------------ *)
(* PML: matching *)

let matches (po : posted) (d : delivery) =
  (match po.want_src with None -> true | Some s -> s = d.d_src)
  && match po.want_tag with None -> true | Some t -> t = d.d_tag

let append q item =
  let cell = Cell { item; next = Nil } in
  (match q.last with Nil -> q.first <- cell | Cell last -> last.next <- cell);
  q.last <- cell

let rec take_after q fits key prev = function
  | Nil -> None
  | Cell c as cell ->
    if fits key c.item then begin
      (match prev with Nil -> q.first <- c.next | Cell p -> p.next <- c.next);
      if q.last == cell then q.last <- prev;
      Some c.item
    end
    else take_after q fits key cell c.next

(* Take out the oldest [item] for which [fits key item]. *)
let take q fits key = take_after q fits key Nil q.first

let deliver dst d =
  match take dst.posted (fun d po -> matches po d) d with
  | Some po -> Ivar.fill po.got d
  | None -> append dst.unexpected d

let select_btl p ~dst =
  match p.peer_kind.(dst.prank) with
  | Some k -> k
  | None ->
    let shared =
      List.filter
        (fun k ->
          List.mem k dst.pbtls && Btl.reachable p.pjob.jcluster ~src:p.pvm ~dst:dst.pvm k)
        p.pbtls
    in
    (match List.sort Btl.compare_priority shared with
    | k :: _ ->
      p.peer_kind.(dst.prank) <- Some k;
      k
    | [] ->
      raise
        (No_route
           (Printf.sprintf "rank %d -> rank %d: no common reachable BTL (have [%s] / [%s])"
              p.prank dst.prank
              (String.concat "," (List.map Btl.kind_name p.pbtls))
              (String.concat "," (List.map Btl.kind_name dst.pbtls)))))

(* ------------------------------------------------------------------ *)
(* CRCP bookmark bookkeeping *)

let maybe_release job =
  if job.ckpt_entered = job.jnp && job.jinflight = 0 then
    ignore (Ivar.fill_if_empty job.ckpt_release ())

let inflight_incr job = job.jinflight <- job.jinflight + 1

let inflight_decr job =
  job.jinflight <- job.jinflight - 1;
  assert (job.jinflight >= 0);
  maybe_release job

(* ------------------------------------------------------------------ *)
(* Busy-wait model: Open MPI's progress engine polls, so a process blocked
   inside an MPI operation still occupies (up to) a core. On a
   non-over-committed host this is invisible — the spinner burns its own
   core; under consolidation it is exactly the paper's Fig. 8b "CPU
   contention under the CPU over-commit setting". One spin task per
   process, reference-counted across nested waits (sendrecv runs a send
   fiber and a receive concurrently). *)

let spin_enter p =
  p.spin_depth <- p.spin_depth + 1;
  if p.spin_depth = 1 then
    p.spin_task <-
      Some (Ps_resource.start (Vm.host p.pvm).Node.cpu ~demand:1.0 ~work:1.0e8)

let spin_exit p =
  p.spin_depth <- p.spin_depth - 1;
  if p.spin_depth = 0 then begin
    (match p.spin_task with
    | Some task -> Ps_resource.cancel (Vm.host p.pvm).Node.cpu task
    | None -> ());
    p.spin_task <- None
  end

let with_spin p f =
  spin_enter p;
  match f () with
  | v ->
    spin_exit p;
    v
  | exception e ->
    spin_exit p;
    raise e

(* ------------------------------------------------------------------ *)
(* Point-to-point *)

let send p ~dst ~tag ~bytes =
  if dst < 0 || dst >= p.pjob.jnp then invalid_arg "Rank.send: bad destination rank";
  if bytes < 0.0 then invalid_arg "Rank.send: negative size";
  let dproc = p.pjob.jprocs.(dst) in
  let kind = select_btl p ~dst:dproc in
  let job = p.pjob in
  inflight_incr job;
  if bytes <= Btl.eager_limit kind then begin
    (* Eager: the envelope is injected now (program order), the sender
       returns immediately, and the payload travels on its own fiber. *)
    let arrived = Ivar.create () in
    deliver dproc
      { d_src = p.prank; d_tag = tag; d_bytes = bytes; d_protocol = `Eager arrived };
    Sim.spawn job.sim ~name:"eager-send" (fun () ->
        Btl.transfer job.jcluster ~src:p.pvm ~dst:dproc.pvm kind ~bytes;
        Ivar.fill arrived ();
        inflight_decr job)
  end
  else
    with_spin p (fun () ->
        (* Rendezvous: RTS now, wait for the matching receive (CTS),
           stream. *)
        let rv = { cts = Ivar.create (); data_done = Ivar.create () } in
        deliver dproc
          { d_src = p.prank; d_tag = tag; d_bytes = bytes; d_protocol = `Rendezvous rv };
        Ivar.read rv.cts;
        Btl.control_message job.jcluster ~src:p.pvm ~dst:dproc.pvm kind;
        Btl.transfer job.jcluster ~src:p.pvm ~dst:dproc.pvm kind ~bytes;
        Ivar.fill rv.data_done ();
        inflight_decr job)

let complete_delivery d =
  match d.d_protocol with
  | `Eager arrived ->
    Ivar.read arrived;
    d.d_bytes
  | `Rendezvous rv ->
    Ivar.fill rv.cts ();
    Ivar.read rv.data_done;
    d.d_bytes

let recv p ?src ?tag () =
  with_spin p (fun () ->
      let po = { want_src = src; want_tag = tag; got = Ivar.create () } in
      match take p.unexpected matches po with
      | Some d -> complete_delivery d
      | None ->
        append p.posted po;
        complete_delivery (Ivar.read po.got))

(* ------------------------------------------------------------------ *)
(* Checkpoint flow *)

let request_checkpoint job =
  if job.ckpt_requested then invalid_arg "Rank.request_checkpoint: already pending";
  job.ckpt_requested <- true;
  (* Epoch agreement: every process takes the checkpoint at the first safe
     point no process has reached yet. Because each application iteration
     contains a synchronising collective, process skew is under one
     iteration, so by the time the leading process fences itself at the
     target epoch it has already served every lagging peer's current
     iteration — no one blocks on a fenced process. *)
  job.ckpt_target <-
    1 + Array.fold_left (fun acc p -> max acc p.points_passed) 0 job.jprocs;
  job.linkup_waits <- [];
  job.ckpt_complete

let last_checkpoint_epoch job = job.ckpt_target

let last_linkup_wait job = List.fold_left Time.max Time.zero job.linkup_waits

let checkpoint_flow p =
  let job = p.pjob in
  (* 1. CRCP quiesce: everyone at a safe point, network drained. *)
  job.ckpt_entered <- job.ckpt_entered + 1;
  let release = job.ckpt_release in
  maybe_release job;
  Ivar.read release;
  (* 2. OPAL CRS pre-checkpoint: release InfiniBand resources (QPs, pinned
     buffers) so the HCA can be detached (§III-C). *)
  let had_openib = List.mem Btl.Openib p.pbtls in
  p.pbtls <- List.filter (fun k -> k <> Btl.Openib) p.pbtls;
  (* 3. SELF checkpoint callback — Ninja parks us in symvirt_wait here;
     when it returns the VMM has detached/migrated/re-attached. *)
  (match job.ft_hooks with Some h -> h.on_checkpoint p | None -> ());
  (* 4. SELF continue callback. *)
  (match job.ft_hooks with Some h -> h.on_continue p | None -> ());
  (* 5. BTL reconstruction. Normally it happens because the IB modules
     were torn down; a TCP-only process skips it unless
     ompi_cr_continue_like_restart forces it (§III-C). *)
  if had_openib || job.continue_like_restart then begin
    let wait = construct_btls p in
    job.linkup_waits <- wait :: job.linkup_waits
  end;
  (* 6. Post-reconstruction barrier: no process resumes application code
     until every process has a consistent transport table (Open MPI's
     coordinated continue). The last one out resets the generation and
     fills the host-side ivar. *)
  let complete = job.ckpt_complete in
  job.ckpt_done <- job.ckpt_done + 1;
  if job.ckpt_done = job.jnp then begin
    job.ckpt_requested <- false;
    job.ckpt_entered <- 0;
    job.ckpt_done <- 0;
    job.ckpt_release <- Ivar.create ();
    job.ckpt_complete <- Ivar.create ();
    Ivar.fill complete ()
  end;
  Ivar.read complete

let checkpoint_point p =
  p.points_passed <- p.points_passed + 1;
  if p.pjob.ckpt_requested && p.points_passed >= p.pjob.ckpt_target then checkpoint_flow p
