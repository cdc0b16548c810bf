open Ninja_engine
open Ninja_hardware
open Ninja_telemetry

type mode = Run_ctx.mode = Quick | Full

type env = {
  ctx : Run_ctx.t;
  sim : Sim.t;
  cluster : Cluster.t;
  recorder : Recorder.t option;
  timeline : Buffer.t option;
}

let fresh ?spec ctx =
  let sim = Sim.create ~seed:ctx.Run_ctx.seed () in
  (* An explicit spec wins (experiments that hardcode their population);
     otherwise a topology in the context shapes the cluster, and the AGC
     testbed remains the default. *)
  let cluster =
    match (spec, ctx.Run_ctx.topology) with
    | Some spec, _ -> Cluster.create sim ~spec ()
    | None, Some text -> (
      match Topology.of_string text with
      | Ok topo -> Cluster.create sim ~topology:topo ()
      | Error msg ->
        failwith (Printf.sprintf "Exp_common.fresh: bad topology %S: %s" text msg))
    | None, None -> Cluster.create sim ~spec:Spec.agc ()
  in
  List.iter
    (fun text ->
      match Ninja_faults.Injector.parse_spec text with
      | Ok spec -> Ninja_faults.Injector.arm_spec (Cluster.injector cluster) spec
      | Error msg -> failwith (Printf.sprintf "Exp_common.fresh: bad fault spec %S: %s" text msg))
    ctx.Run_ctx.faults;
  (* A trace sink renders every probe event this cluster emits, one
     [Probe.pp] line each. Attached first, so no event escapes it. *)
  let timeline =
    Option.map
      (fun _ ->
        let b = Buffer.create 4096 in
        let fmt = Format.formatter_of_buffer b in
        ignore
          (Probe.attach (Cluster.probes cluster) (fun ev ->
               Format.fprintf fmt "%a@." Probe.pp ev));
        b)
      ctx.Run_ctx.trace
  in
  (* A spans sink in the context arms the telemetry recorder: every probe
     event this cluster emits is collected and flushed as one trace-event
     fragment when the simulation completes. Without the sink the bus
     stays unobserved and costs nothing. *)
  let recorder =
    match ctx.Run_ctx.spans with
    | None -> None
    | Some _ ->
      let r = Recorder.create () in
      ignore (Recorder.attach r (Cluster.probes cluster));
      Some r
  in
  { ctx; sim; cluster; recorder; timeline }

(* The context carries the copy mode as text (the engine cannot depend on
   the VMM); it was validated at the entry point, so a bad name here is a
   programming error. *)
let migration_mode ctx =
  match ctx.Run_ctx.migration with
  | None -> Ninja_vmm.Migration.Precopy
  | Some text -> (
    match Ninja_vmm.Migration.mode_of_string text with
    | Ok mode -> mode
    | Error msg ->
      failwith (Printf.sprintf "Exp_common.migration_mode: bad mode %S: %s" text msg))

let traffic ctx =
  Option.map
    (fun text ->
      match Ninja_workloads.Traffic.of_string text with
      | Ok pattern -> pattern
      | Error msg ->
        failwith (Printf.sprintf "Exp_common.traffic: bad pattern %S: %s" text msg))
    ctx.Run_ctx.traffic

let hosts cluster ~prefix ~first ~count =
  List.init count (fun i ->
      Cluster.find_node cluster (Printf.sprintf "%s%02d" prefix (first + i)))

let track_prefix ctx =
  match ctx.Run_ctx.label with "" -> "" | label -> label ^ "/"

let flush_trace env =
  match env.timeline with
  | Some b when Buffer.length b > 0 ->
    Run_ctx.trace_line env.ctx
      (Printf.sprintf "-- trace (seed %Ld) --\n%s" env.ctx.Run_ctx.seed (Buffer.contents b))
  | _ -> ()

let flush_telemetry env =
  match env.recorder with
  | None -> ()
  | Some r ->
    let fragment = Export.recorder_fragment ~track_prefix:(track_prefix env.ctx) r in
    if fragment <> "" then Run_ctx.emit_spans env.ctx fragment;
    (* Surface reassembly anomalies where a soak job's log shows them,
       not only inside the exported JSON. *)
    (match Recorder.anomalies r with
    | [] -> ()
    | first :: _ as anomalies ->
      Printf.eprintf "telemetry: %d span anomal%s (seed %Ld, first: %s)\n%!"
        (List.length anomalies)
        (if List.length anomalies = 1 then "y" else "ies")
        env.ctx.Run_ctx.seed first);
    (* Telemetry metrics ride the metrics sink only when the recorder is
       armed, so a plain [--metrics] run's output is unchanged. *)
    if not (Metrics.is_empty (Recorder.metrics r)) then
      Run_ctx.emit_metrics env.ctx
        (Printf.sprintf "# telemetry (%s, seed %Ld)\n%s"
           (match env.ctx.Run_ctx.label with "" -> "run" | l -> l)
           env.ctx.Run_ctx.seed
           (Metrics.to_csv (Recorder.metrics r)))

let finish env =
  Run_ctx.observe env.ctx "sim_s" (Time.to_sec_f (Sim.now env.sim));
  Run_ctx.observe env.ctx "sim_events" (float_of_int (Sim.events_processed env.sim));
  Run_ctx.observe env.ctx "heap_insertions" (float_of_int (Sim.heap_insertions env.sim));
  Run_ctx.observe env.ctx "rerates" (float_of_int (Cluster.rerates env.cluster));
  Run_ctx.observe env.ctx "probe_events"
    (float_of_int (Probe.emitted (Cluster.probes env.cluster)));
  flush_trace env;
  flush_telemetry env

let run_to_completion env =
  Sim.run env.sim;
  finish env

let run_until env limit =
  Sim.run_until env.sim limit;
  finish env

let point_label ctx i =
  match ctx.Run_ctx.label with
  | "" -> "#" ^ string_of_int i
  | label -> label ^ "#" ^ string_of_int i

let sweep ctx ~f xs =
  match ctx.Run_ctx.pool with
  | None ->
    List.mapi (fun i x -> f (Run_ctx.with_label (point_label ctx i) ctx) x) xs
  | Some _ ->
    (* Pooled points buffer their sink chunks, replayed in input order
       afterwards: the parent sinks see the exact chunk sequence of the
       serial sweep, so output is byte-identical at any -j. Points run
       their own simulations serially (no nested pool). *)
    let point (i, x) =
      let pctx = ctx |> Run_ctx.with_label (point_label ctx i) |> Run_ctx.with_pool None in
      Run_ctx.buffered pctx (fun pctx -> f pctx x)
    in
    let results = Run_ctx.map ctx ~f:point (List.mapi (fun i x -> (i, x)) xs) in
    List.iter (fun (_, replay) -> replay ()) results;
    List.map fst results

let sec = Time.to_sec_f
