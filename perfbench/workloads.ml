(* The benchmark's three workloads, driven only through lib/'s public API.

   A workload is a fixed round of simulations derived from the seed; the
   harness repeats rounds for the measured time. Every round reports its
   ops, the digest of its simulated results, and the layer values it
   measured from outside the library: host seconds spent in set-up and in
   the event loop, event counts, and (when [tr] is given) the spans and
   probe-topic counts of the traced run. Op and set-up times are processor
   seconds outside the calibration kernel ({!Calib.processor}); the harness
   scales them by their round's host speed. Every op first lets the
   calibration sample with {!Calib.tick}. *)

open Ninja_engine
open Ninja_hardware
open Ninja_core
open Ninja_controlplane
open Ninja_experiments

type round = {
  ops : int;  (** ops attempted *)
  failed : int;
  failures : string list;  (** one line per failure *)
  op_times : float list;  (** processor seconds per op; [[]] when ops are not timed one by one *)
  setups : float list;  (** processor seconds of set-up per simulation, before its first event *)
  op_digests : string list;  (** per op, in order (one per round for dc-serve) *)
  digest : string;  (** the round's simulated results *)
  vals : (string * float) list;  (** layer values, see {!Harness} *)
}

(* Layer values of one round, summed over its simulations. *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) k v = Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k))

let add_max (acc : acc) k v =
  Hashtbl.replace acc k (Float.max v (Option.value ~default:0.0 (Hashtbl.find_opt acc k)))

let vals_of (acc : acc) = Hashtbl.fold (fun k v l -> (k, v) :: l) acc [] |> List.sort compare

let hex s = Digest.to_hex (Digest.string s)

let now = Spans.now

let cpu = Calib.processor

(* The traced run's probe subscriber: events per topic, and the fabric's
   active flow count sampled at each event. *)
let watch_probes acc cluster =
  let fabric = Cluster.fabric cluster in
  ignore
    (Probe.attach (Cluster.probes cluster) (fun ev ->
         add acc ("probe.events." ^ ev.Probe.topic) 1.0;
         add_max acc "flownet.active_flows.max"
           (float_of_int (Ninja_flownet.Fabric.active_flows fabric))))

let build acc tr cluster =
  add acc "hardware.links" (float_of_int (List.length (Ninja_flownet.Fabric.links (Cluster.fabric cluster))));
  if tr <> None then watch_probes acc cluster

(* [Exp_common.run_to_completion] under the engine.drain span. *)
let drain acc tr env =
  let w0 = Gc.minor_words () and t0 = now () in
  Spans.wrap tr "engine.drain" (fun () -> Exp_common.run_to_completion env);
  add acc "engine.drain_s" (now () -. t0);
  add acc "engine.drain_words" (Gc.minor_words () -. w0);
  add acc "engine.events" (float_of_int (Sim.events_processed env.Exp_common.sim))

let crash_round ~ops exn =
  let msg = Printexc.to_string exn in
  { ops; failed = ops; failures = [ "crash: " ^ msg ]; op_times = []; setups = [];
    op_digests = [ "crash" ]; digest = "crash"; vals = [] }

(* ------------------------------------------------------------------ *)
(* mpi-consolidation: exp_power's under-utilised consolidated case. *)

let mpi_steps = 60

let mpi_step ctx =
  Ninja_mpi.Mpi.compute ctx ~seconds:0.3;
  Sim.sleep (Time.of_sec_f 1.7);
  Ninja_mpi.Mpi.allreduce ctx ~bytes:1.0e6;
  Ninja_mpi.Mpi.checkpoint_point ctx

(* [migrate:false] is the layer-removal run: the same job, spread over
   its four hosts, with no Ninja.migrate. Tests shorten the job with
   [steps]. *)
let mpi_consolidation ?tr ?(migrate = true) ?(steps = mpi_steps) seed =
  let acc = Hashtbl.create 16 in
  let span name f = Spans.wrap tr name f in
  Calib.tick ();
  let t0 = now () and c0 = cpu () in
  try
    let env =
      span "hardware.build" (fun () ->
          Exp_common.fresh ~spec:Spec.agc (Run_ctx.make ~seed ()))
    in
    let cluster = env.Exp_common.cluster in
    add acc "hardware.build_s" (now () -. t0);
    build acc tr cluster;
    let ib = Exp_common.hosts cluster ~prefix:"ib" ~first:0 ~count:4 in
    let eth = Exp_common.hosts cluster ~prefix:"eth" ~first:0 ~count:2 in
    let ninja = span "core.setup" (fun () -> Ninja.setup cluster ~hosts:ib ()) in
    let finished_at = ref 0.0 in
    ignore
      (span "core.launch" (fun () ->
           Ninja.launch ninja ~procs_per_vm:8 (fun ctx ->
               for _ = 1 to steps do
                 mpi_step ctx
               done;
               if Ninja_mpi.Mpi.rank ctx = 0 then finished_at := Ninja_mpi.Mpi.wtime ctx)));
    let breakdown = ref None in
    if migrate then
      Sim.spawn env.Exp_common.sim (fun () ->
          Sim.sleep (Time.sec 5);
          let dst = List.mapi (fun i vm -> (vm, List.nth eth (i / 2))) (Ninja.vms ninja) in
          breakdown := Some (Ninja.migrate ninja ~plan:(fun vm -> List.assq vm dst) ()));
    Sim.spawn env.Exp_common.sim (fun () -> Ninja.wait_job ninja);
    let setup = cpu () -. c0 in
    drain acc tr env;
    add acc "probe.events" (float_of_int (Probe.emitted (Cluster.probes cluster)));
    let results =
      Printf.sprintf "finish=%.17g\n%s" !finished_at
        (match !breakdown with
        | None -> "no migration\n"
        | Some b ->
          String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g\n" k v) (Ninja_metrics.Breakdown.to_row b)))
    in
    let digest = hex results in
    { ops = 1; failed = 0; failures = []; op_times = [ cpu () -. c0 ]; setups = [ setup ];
      op_digests = [ digest ]; digest; vals = vals_of acc }
  with exn -> crash_round ~ops:1 exn

(* ------------------------------------------------------------------ *)
(* fuzz-campaign: generated scenarios through Runner.run. *)

let fuzz_scenarios = 1200

let outcome_text (r : Ninja_check.Runner.result) =
  match r.Ninja_check.Runner.outcome with
  | Ninja_check.Runner.Passed -> "passed"
  | Ninja_check.Runner.Crashed msg -> "crashed " ^ msg
  | Ninja_check.Runner.Violated vs ->
    "violated "
    ^ String.concat "," (List.map (fun v -> v.Ninja_check.Checker.invariant) vs)

(* What a scenario's digest covers: its outcome and final clock. *)
let scenario_results (r : Ninja_check.Runner.result) =
  Printf.sprintf "%s sim_end=%.17g" (outcome_text r) r.sim_end

let fuzz_campaign ?tr ?(n = fuzz_scenarios) seed =
  let acc = Hashtbl.create 32 in
  let scenarios = Ninja_check.Fuzz.generate ~seed ~n in
  let op sc =
    Calib.tick ();
    let t0 = now () and c0 = cpu () in
    let t_attach = ref t0 and t_first = ref Float.nan and c_first = ref Float.nan in
    let w_first = ref 0.0 in
    let cluster = ref None and parent = ref (-1) in
    (* Runs once the cluster is configured, before the fleet boots: the
       hardware build ends here, and a zero-delay marker event times the
       start of the event loop (the first event scheduled at time 0 that
       the fleet's own events follow). *)
    let attach c =
      t_attach := now ();
      Option.iter
        (fun t ->
          parent := Spans.current t;
          Spans.add t "hardware.build" ~start:t0 ~stop:!t_attach)
        tr;
      cluster := Some c;
      build acc tr c;
      ignore
        (Sim.schedule (Cluster.sim c) ~after:Time.zero (fun () ->
             w_first := Gc.minor_words ();
             t_first := now ();
             c_first := cpu ()))
    in
    let r = Spans.wrap tr "check.run" (fun () -> Ninja_check.Runner.run ~attach sc) in
    let t_end = now () and c_end = cpu () in
    let t_first = if Float.is_nan !t_first then t_end else !t_first in
    let c_first = if Float.is_nan !c_first then c_end else !c_first in
    add acc "hardware.build_s" (!t_attach -. t0);
    add acc "engine.drain_s" (t_end -. t_first);
    if !w_first > 0.0 then add acc "engine.drain_words" (Gc.minor_words () -. !w_first);
    Option.iter
      (fun t -> Spans.add t ~parent:!parent "engine.drain" ~start:t_first ~stop:t_end)
      tr;
    Option.iter
      (fun c ->
        (* Minus the marker event. *)
        add acc "engine.events" (float_of_int (Sim.events_processed (Cluster.sim c) - 1));
        add acc "probe.events" (float_of_int (Probe.emitted (Cluster.probes c))))
      !cluster;
    add acc "check.events_seen" (float_of_int r.Ninja_check.Runner.events);
    let results = scenario_results r in
    let failure =
      if Ninja_check.Runner.failed r then
        Some (Format.asprintf "%a" Ninja_check.Runner.pp_result r)
      else None
    in
    (c_end -. c0, c_first -. c0, hex results, failure)
  in
  let results = List.map op scenarios in
  let failures = List.filter_map (fun (_, _, _, f) -> f) results in
  let op_digests = List.map (fun (_, _, d, _) -> d) results in
  { ops = n; failed = List.length failures; failures;
    op_times = List.map (fun (t, _, _, f) -> if f = None then t else infinity) results;
    setups = List.map (fun (_, s, _, _) -> s) results; op_digests;
    digest = hex (String.concat "\n" op_digests); vals = vals_of acc }

(* ------------------------------------------------------------------ *)
(* dc-serve: the `ninja_sim serve` pipeline on a generated datacenter. *)

type serve_layers = {
  checker : bool;
  flowmon : bool;
  auto_swap : Service.swap_pricing option;
}

let serve_full = { checker = true; flowmon = true; auto_swap = Some Service.Learned }

let serve_topology seed =
  Printf.sprintf "leaf-spine:pods=4,racks=4,hosts=8,ib-pods=2,oversub=4,seed=%Ld" seed

let serve_horizon = 3600.0

let serve_rate = 0.1

let serve_process =
  Ninja_workloads.Arrivals.(
    Overlay [ Poisson { rate = serve_rate }; Bursts { period = 600.0; size = 8; spread = 5.0 } ])

let serve_tenants = List.init 6 (fun i -> (Printf.sprintf "t%d" i, [| 3.0; 2.0; 1.0 |].(i mod 3)))

let serve_traffic =
  match Ninja_workloads.Traffic.of_string "skewed" with Ok p -> p | Error e -> failwith e

let serve_snapshot_every = 300.0

(* The report `ninja_sim serve --stats` prints (without --log). *)
let serve_report ~seed svc fm =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "== serve: seed %Ld, %.0fs at rate %.3g/s, strategy %s, mode %s ==\n" seed serve_horizon
    serve_rate
    (Ninja_planner.Solver.name Ninja_planner.Solver.default)
    (Ninja_vmm.Migration.mode_name Ninja_vmm.Migration.Precopy);
  let c name = int_of_float (Service.count svc name) in
  pf
    "requests: %d submitted, %d completed, %d rejected, %d dropped, %d failed (%d deferrals, \
     %d requeues, %d rollbacks, %d stranded VMs, %d lost VMs)\n"
    (Service.submitted svc) (c "ctl.requests.completed") (c "ctl.requests.rejected")
    (c "ctl.requests.dropped") (c "ctl.requests.failed") (c "ctl.requests.deferred")
    (c "ctl.requests.requeued") (c "ctl.batches.rolled_back") (c "ctl.vms.stranded")
    (c "ctl.vms.lost");
  (match Service.latency_percentiles svc with
  | None -> pf "request latency: no completed requests\n"
  | Some (p50, p95, p99) -> pf "request latency: p50 %.1fs, p95 %.1fs, p99 %.1fs\n" p50 p95 p99);
  (match Ninja_telemetry.Metrics.samples (Service.metrics svc) "ctl.vm.downtime.seconds" with
  | [] -> pf "vm downtime: none\n"
  | samples ->
    pf "vm downtime: %d fenced intervals, max %.2fs, total %.2fs\n" (List.length samples)
      (List.fold_left Float.max 0.0 samples)
      (List.fold_left ( +. ) 0.0 samples));
  Option.iter
    (fun fm ->
      pf "flowmon: %d ticks, slo burn rate %.3f, %d hot links, %d learned pairs\n"
        (Ninja_telemetry.Flowmon.ticks fm) (Ninja_telemetry.Flowmon.burn_rate fm)
        (List.length (Ninja_telemetry.Flowmon.hotspots fm))
        (List.length (Ninja_telemetry.Flowmon.learned fm)))
    fm;
  pf "%s"
    (Format.asprintf "%a" Ninja_metrics.Table.pp
       (Ninja_telemetry.Metrics.to_table (Service.metrics svc)));
  Buffer.contents b

let ctl_counters =
  [ "submitted"; "completed"; "rejected"; "dropped"; "deferred"; "requeued"; "dispatched" ]

(* A round serves [serve_sims] generated datacenters: the seed's own and
   the ones at seed + i * serve_seed_stride. A request's host cost depends
   on the datacenter and request stream a seed draws (14% apart between
   seeds 3 and 17), and a round over several keeps most of that out of
   the spread between seeds. *)
let serve_sims = 3

let serve_seed_stride = 1_000_000L

let serve_seeds ~sims seed =
  List.init sims (fun i -> Int64.add seed (Int64.mul (Int64.of_int i) serve_seed_stride))

(* One serve simulation; its layer values go into [acc]. *)
let serve_sim acc tr layers seed =
  let span name f = Spans.wrap tr name f in
  Calib.tick ();
  let t0 = now () and c0 = cpu () in
  try
    let ctx = Run_ctx.make ~seed ~topology:(serve_topology seed) ~label:"serve" () in
    let env = span "hardware.build" (fun () -> Exp_common.fresh ctx) in
    let cluster = env.Exp_common.cluster in
    add acc "hardware.build_s" (now () -. t0);
    build acc tr cluster;
    (* The learned hook is a forward reference: the monitor needs the
       service's registry, the service config needs the monitor's
       estimate. The traced run times each call. *)
    let learned_ref = ref (fun () -> []) in
    let learned () =
      match tr with
      | None -> !learned_ref ()
      | Some t ->
        let start = now () in
        let m = !learned_ref () in
        let stop = now () in
        Spans.add t "planner.learned" ~start ~stop;
        add acc "planner.learned_calls" 1.0;
        add acc "planner.learned_s" (stop -. start);
        m
    in
    let t_boot = now () in
    let specs, svc =
      span "controlplane.boot" (fun () ->
          let specs =
            Service.boot_tenants ~traffic:serve_traffic cluster ~tenants:serve_tenants
              ~vms_per_tenant:8 ~mem_bytes:(Units.gb 8.0)
          in
          let config =
            { Service.default_config with
              strategy = Ninja_planner.Solver.default;
              mode = Ninja_vmm.Migration.Precopy;
              max_inflight = 2;
              queue_cap = 8;
              auto_swap = layers.auto_swap;
              learned_traffic =
                (if layers.auto_swap = Some Service.Learned then Some learned else None) }
          in
          (specs, Service.create cluster ~config ~tenants:specs ()))
    in
    add acc "controlplane.boot_s" (now () -. t_boot);
    let fm =
      if not layers.flowmon then None
      else
        Some
          (span "telemetry.flowmon" (fun () ->
               let open Ninja_telemetry in
               let config = { Flowmon.default_config with snapshot_every = serve_snapshot_every } in
               let traffic = List.concat_map (fun (ts : Service.tenant_spec) -> ts.traffic) specs in
               let fm = Flowmon.create ~config ~registry:(Service.metrics svc) cluster ~traffic in
               (learned_ref :=
                  fun () ->
                    if Flowmon.observed_window fm <= 0.0 then []
                    else
                      Ninja_workloads.Traffic.of_observations ~sample_rate:config.sample_rate
                        ~pkt_bytes:config.pkt_bytes ~window:(Flowmon.observed_window fm)
                        (Flowmon.samples fm));
               Flowmon.start fm ~horizon:serve_horizon;
               fm))
    in
    let checker =
      if not layers.checker then None
      else
        Some
          (span "check.install" (fun () ->
               Ninja_check.Checker.install cluster ~vms:(Service.vms svc)))
    in
    span "controlplane.open_loop" (fun () ->
        Service.open_loop svc ~process:serve_process ~horizon:serve_horizon);
    let setup = cpu () -. c0 in
    drain acc tr env;
    add acc "probe.events" (float_of_int (Probe.emitted (Cluster.probes cluster)));
    let violations =
      match checker with
      | None -> []
      | Some c ->
        let t = now () in
        span "check.finish" (fun () -> Ninja_check.Checker.check_finish c);
        add acc "check.finish_s" (now () -. t);
        Ninja_check.Checker.detach c;
        add acc "check.events_seen" (float_of_int (Ninja_check.Checker.events_seen c));
        Ninja_check.Checker.violations c
    in
    let report = serve_report ~seed svc fm in
    let stats =
      match fm with
      | None -> ""
      | Some fm ->
        let t = now () in
        let s =
          span "telemetry.snapshot" (fun () ->
              let snaps = Ninja_telemetry.Flowmon.snapshots fm in
              Printf.sprintf "# flowmon seed=%Ld snapshots=%d\n%s" seed (List.length snaps)
                (String.concat "" snaps))
        in
        add acc "telemetry.snapshot_s" (now () -. t);
        add acc "telemetry.flowmon.ticks" (float_of_int (Ninja_telemetry.Flowmon.ticks fm));
        Ninja_telemetry.Flowmon.detach fm;
        s
    in
    List.iter
      (fun k -> add acc ("controlplane.requests." ^ k) (Service.count svc ("ctl.requests." ^ k)))
      ctl_counters;
    List.iter
      (fun k -> add acc ("controlplane.swap." ^ k) (Service.count svc ("ctl.swap." ^ k)))
      [ "proposed"; "applied" ];
    let failures =
      (match Service.accounting svc with Ok () -> [] | Error msg -> [ "accounting: " ^ msg ])
      @ List.map
          (fun v -> Format.asprintf "violation: %a" Ninja_check.Checker.pp_violation v)
          violations
    in
    let ops = Service.submitted svc in
    let digest = hex (report ^ stats) in
    { ops; failed = (if failures = [] then 0 else ops); failures; op_times = []; setups = [ setup ];
      op_digests = [ digest ]; digest; vals = [] }
  with exn -> crash_round ~ops:1 exn

(* [layers] other than {!serve_full} are the traced run's removal runs;
   tests shorten the round with [sims]. *)
let dc_serve ?tr ?(layers = serve_full) ?(sims = serve_sims) seed =
  let acc = Hashtbl.create 64 in
  let parts = List.map (serve_sim acc tr layers) (serve_seeds ~sims seed) in
  let sum f = List.fold_left (fun n r -> n + f r) 0 parts in
  let op_digests = List.concat_map (fun r -> r.op_digests) parts in
  { ops = sum (fun r -> r.ops); failed = sum (fun r -> r.failed);
    failures = List.concat_map (fun r -> r.failures) parts; op_times = [];
    setups = List.concat_map (fun r -> r.setups) parts; op_digests;
    digest = hex (String.concat "\n" op_digests); vals = vals_of acc }
