open Ninja_engine

type track = { mutable stack : Span.t list (* innermost open span first *) }

type t = {
  m : Metrics.t;
  tracks : (string * string, track) Hashtbl.t;
  mutable rev_roots : Span.t list;
  mutable rev_instants : Probe.event list;
  mutable rev_anomalies : string list;
  fences : (string, Time.t) Hashtbl.t;  (* fence id -> entry time; key "" legacy *)
  mutable last_at : Time.t;
  mutable events : int;
  mutable open_count : int;
}

let create () =
  {
    m = Metrics.create ();
    tracks = Hashtbl.create 8;
    rev_roots = [];
    rev_instants = [];
    rev_anomalies = [];
    fences = Hashtbl.create 4;
    last_at = Time.zero;
    events = 0;
    open_count = 0;
  }

let metrics t = t.m

let roots t = List.rev t.rev_roots

let instants t = List.rev t.rev_instants

let anomalies t = List.rev t.rev_anomalies

let last_at t = t.last_at

let events_seen t = t.events

let open_spans t = t.open_count

let anomaly t fmt = Printf.ksprintf (fun m -> t.rev_anomalies <- m :: t.rev_anomalies) fmt

let track t ~proc ~tid =
  match Hashtbl.find_opt t.tracks (proc, tid) with
  | Some tr -> tr
  | None ->
    let tr = { stack = [] } in
    Hashtbl.add t.tracks (proc, tid) tr;
    tr

let seconds = Time.to_sec_f

(* Histograms keyed by span taxonomy, fed as spans close. *)
let closed t (s : Span.t) =
  match s.Span.cat with
  | "phase" -> Metrics.observe t.m ("phase." ^ s.Span.name ^ ".seconds") (seconds (Span.duration s))
  | "migration" -> Metrics.observe t.m "migration.total.seconds" (seconds (Span.duration s))
  | "retry" -> Metrics.observe t.m "retry.lost.seconds" (seconds (Span.duration s))
  | _ -> ()

let hang t tr s =
  match tr.stack with
  | top :: _ -> Span.add_child top s
  | [] -> t.rev_roots <- s :: t.rev_roots

let on_event t (e : Probe.event) =
  t.events <- t.events + 1;
  let at = e.Probe.at in
  t.last_at <- Time.max t.last_at at;
  match e.Probe.payload with
  | Probe.Span_begin { name; cat; proc; thread; args } ->
    let tr = track t ~proc ~tid:thread in
    let s = Span.create ~name ~cat ~proc ~thread ~start:at ~args () in
    hang t tr s;
    tr.stack <- s :: tr.stack;
    t.open_count <- t.open_count + 1
  | Probe.Span_end { name; proc; thread; args } -> (
    let tr = track t ~proc ~tid:thread in
    match tr.stack with
    | [] -> anomaly t "span end %S on %s/%s without a begin" name proc thread
    | top :: rest ->
      if not (String.equal top.Span.name name) then
        anomaly t "span end %S on %s/%s closes open span %S" name proc thread top.Span.name;
      tr.stack <- rest;
      t.open_count <- t.open_count - 1;
      Span.finish top ~at ~args ();
      closed t top)
  | Probe.Span_note { name; cat; proc; thread; start; args } ->
    let s = Span.create ~name ~cat ~proc ~thread ~start:(Time.min start at) ~args () in
    Span.finish s ~at ();
    hang t (track t ~proc ~tid:thread) s;
    closed t s
  | payload -> (
    t.rev_instants <- e :: t.rev_instants;
    match payload with
    | Probe.Migrate_start _ -> Metrics.incr t.m "migrations.started"
    | Probe.Migrate_complete _ -> Metrics.incr t.m "migrations.completed"
    | Probe.Migrate_rollback _ -> Metrics.incr t.m "migrations.rolled_back"
    | Probe.Migrate_giveup _ -> Metrics.incr t.m "migrations.gave_up"
    | Probe.Fence_enter { id; vms } ->
      (* Concurrent control-plane batches each run their own fence, keyed
         by [id] ("" for the SymVirt controller's single fence). *)
      Hashtbl.replace t.fences id at;
      Metrics.gauge t.m "fence.vms.max" (float_of_int (List.length vms))
    | Probe.Fence_release { id; _ } ->
      Option.iter
        (fun entered ->
          Metrics.observe t.m "fence.residency.seconds" (seconds (Time.diff at entered));
          Hashtbl.remove t.fences id)
        (Hashtbl.find_opt t.fences id)
    | Probe.Stat { name; kind; value } -> (
      (* The control plane mirrors its registry on the bus so a recorder
         exports the same ctl.* numbers. *)
      match kind with
      | Probe.Counter -> Metrics.incr t.m ~by:value name
      | Probe.Gauge -> Metrics.gauge t.m name value
      | Probe.Histogram -> Metrics.observe t.m name value)
    | Probe.Migration_done { bytes; rounds; downtime; _ } ->
      (* Whole bytes, as the trace prints them. Byte counts are page
         multiples, so this never moves a value today. *)
      Metrics.incr t.m ~by:(Float.round bytes) "precopy.bytes";
      Metrics.incr t.m ~by:(float_of_int rounds) "precopy.rounds";
      Metrics.observe t.m "vm.downtime.seconds" (seconds downtime)
    | Probe.Fault _ -> Metrics.incr t.m "faults.injected"
    | Probe.Node_death _ -> Metrics.incr t.m "node.deaths"
    | Probe.Plan_built _ -> Metrics.incr t.m "plans.built"
    | Probe.Executor_report { steps; failures; retries; _ } ->
      Metrics.incr t.m ~by:(float_of_int steps) "executor.steps";
      Metrics.incr t.m ~by:(float_of_int failures) "executor.failures";
      Metrics.incr t.m ~by:(float_of_int retries) "executor.retries"
    | _ -> ())

let attach t probes = Probe.attach probes (on_event t)
