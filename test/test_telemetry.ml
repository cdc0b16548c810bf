(* Telemetry subsystem tests: one track's span transitions build a
   well-formed tree, span lifecycle guards and the tree soundness check;
   the recorder reassembles the same trees from the probe bus and
   derives the protocol metrics; the exporters render
   valid Chrome trace-event fragments; and — the load-bearing property —
   the breakdown re-derived from a bus-reconstructed migration root is
   exactly the one [Ninja.migrate] returns, fault-free and rolled-back
   alike. A qcheck property runs fuzz scenarios with a recorder attached
   and asserts every reconstructed tree is sound. *)

open Ninja_engine
open Ninja_faults
open Ninja_hardware
open Ninja_mpi
open Ninja_metrics
open Ninja_core
open Ninja_check
open Ninja_telemetry

let env_seed =
  match Sys.getenv_opt "NINJA_TEST_SEED" with
  | Some s -> ( try Int64.of_string s with Failure _ -> 1L)
  | None -> 1L

let salted salt = Int64.add env_seed (Int64.of_int salt)

let sec = Time.to_sec_f

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let count_substring hay needle =
  let ln = String.length needle in
  let rec go i acc =
    if i + ln > String.length hay then acc
    else if String.sub hay i ln = needle then go (i + ln) (acc + 1)
    else go (i + 1) acc
  in
  if ln = 0 then 0 else go 0 0

let check_time msg expected actual =
  Alcotest.(check int64) msg (Time.to_ns expected) (Time.to_ns actual)

(* Structural equality of two span trees, field by field, with a path in
   every failure message. *)
let rec check_same_tree path (a : Span.t) (b : Span.t) =
  Alcotest.(check string) (path ^ ": name") a.Span.name b.Span.name;
  Alcotest.(check string) (path ^ ": cat") a.Span.cat b.Span.cat;
  Alcotest.(check string) (path ^ ": proc") a.Span.proc b.Span.proc;
  Alcotest.(check string) (path ^ ": thread") a.Span.thread b.Span.thread;
  check_time (path ^ ": start") a.Span.start b.Span.start;
  Alcotest.(check (option int64))
    (path ^ ": stop")
    (Option.map Time.to_ns a.Span.stop)
    (Option.map Time.to_ns b.Span.stop);
  Alcotest.(check (list (pair string string))) (path ^ ": args") a.Span.args b.Span.args;
  let ca = Span.children a and cb = Span.children b in
  Alcotest.(check int) (path ^ ": child count") (List.length ca) (List.length cb);
  List.iter2
    (fun x y -> check_same_tree (path ^ "/" ^ x.Span.name) x y)
    ca cb

let breakdown_fields (b : Breakdown.t) =
  [
    ("coordination", b.Breakdown.coordination);
    ("detach", b.Breakdown.detach);
    ("migration", b.Breakdown.migration);
    ("attach", b.Breakdown.attach);
    ("linkup", b.Breakdown.linkup);
    ("retry", b.Breakdown.retry);
    ("total", b.Breakdown.total);
  ]

let check_breakdown_eq msg a b =
  List.iter2
    (fun (f, x) (_, y) ->
      Alcotest.(check int64) (Printf.sprintf "%s: %s" msg f) (Time.to_ns x) (Time.to_ns y))
    (breakdown_fields a) (breakdown_fields b)

(* A finished span for hand-built trees. *)
let mk ?(proc = "proc") ?(thread = "thr") ?(args = []) name cat start stop =
  let s =
    Span.create ~name ~cat ~proc ~thread ~start:(Time.of_sec_f start) ~args ()
  in
  Span.finish s ~at:(Time.of_sec_f stop) ();
  s

(* ------------------------------------------------------------------ *)
(* Spans *)

(* One track's nested transitions, in the shape [Ninja.migrate]
   announces them: root [0,4] holds a [1,3] (begin args k=v, end args
   outcome=ok), a retroactive note n [1,3] announced at 3, and b [3,4]
   holding c [3,4]. Each payload goes to [emit] when it happens. *)
let nested_track sim emit =
  let proc = "ninja" and thread = "migration" in
  let begin_ ?(args = []) name cat = emit (Probe.Span_begin { name; cat; proc; thread; args }) in
  let end_ ?(args = []) name = emit (Probe.Span_end { name; proc; thread; args }) in
  Sim.spawn sim (fun () ->
      begin_ "root" "migration";
      Sim.sleep (Time.sec 1);
      begin_ "a" "phase" ~args:[ ("k", "v") ];
      Sim.sleep (Time.sec 2);
      end_ "a" ~args:[ ("outcome", "ok") ];
      (* Retroactive interval, known only after the fact. *)
      emit
        (Probe.Span_note
           { name = "n"; cat = "retry"; proc; thread; start = Time.sec 1;
             args = [ ("phase", "a") ] });
      begin_ "b" "phase";
      begin_ "c" "retry";
      Sim.sleep (Time.sec 1);
      end_ "c";
      end_ "b";
      end_ "root")

(* Feeds [payload] to [r] stamped with the current sim time, as the bus
   would deliver it. *)
let record_now sim r payload =
  Recorder.on_event r { Probe.at = Sim.now sim; topic = Probe.topic payload; payload }

(* A scope — one track's nested begin/note/end — fed straight to a
   recorder, as [Ninja.migrate] feeds its private one, builds the nested
   tree: children in order, durations, args, and a retroactive note's
   start as given. *)
let test_scope_builds_tree () =
  let sim = Sim.create ~seed:env_seed () in
  let r = Recorder.create () in
  nested_track sim (record_now sim r);
  Sim.run sim;
  Alcotest.(check (list string)) "no anomalies" [] (Recorder.anomalies r);
  match Recorder.roots r with
  | [ root ] -> (
    Alcotest.(check (list string)) "well-formed" [] (Span.well_formed root);
    Alcotest.(check (list string)) "children in order" [ "a"; "n"; "b" ]
      (List.map (fun (s : Span.t) -> s.Span.name) (Span.children root));
    check_time "root duration" (Time.sec 4) (Span.duration root);
    let child name = Option.get (Span.find_child root name) in
    check_time "a duration" (Time.sec 2) (Span.duration (child "a"));
    Alcotest.(check (list (pair string string))) "end args append to begin args"
      [ ("k", "v"); ("outcome", "ok") ] (child "a").Span.args;
    check_time "note spans 1..3" (Time.sec 2) (Span.duration (child "n"));
    check_time "note start unclamped" (Time.sec 1) (child "n").Span.start;
    Alcotest.(check (list (pair string string))) "note args" [ ("phase", "a") ]
      (child "n").Span.args;
    let b = child "b" in
    check_time "b duration" (Time.sec 1) (Span.duration b);
    match Span.children b with
    | [ c ] ->
      Alcotest.(check string) "nested child" "c" c.Span.name;
      check_time "c duration" (Time.sec 1) (Span.duration c)
    | _ -> Alcotest.fail "expected exactly one child under b")
  | roots -> Alcotest.failf "expected a single root, got %d" (List.length roots)

(* A note announced with a start after its own timestamp is clamped to
   the event time: a zero-length span, never one that stops before it
   starts. *)
let test_note_clamps_future_start () =
  let r = Recorder.create () in
  let payload =
    Probe.Span_note
      { name = "n"; cat = "phase"; proc = "p"; thread = "t"; start = Time.sec 99; args = [] }
  in
  Recorder.on_event r { Probe.at = Time.sec 3; topic = Probe.topic payload; payload };
  match Recorder.roots r with
  | [ n ] ->
    check_time "start clamped to the event time" (Time.sec 3) n.Span.start;
    check_time "zero duration" Time.zero (Span.duration n)
  | roots -> Alcotest.failf "expected one note, got %d roots" (List.length roots)

let test_span_guards () =
  let s = mk "s" "phase" 1.0 2.0 in
  (try
     Span.finish s ~at:(Time.sec 3) ();
     Alcotest.fail "double finish accepted"
   with Invalid_argument _ -> ());
  let open_span = Span.create ~name:"o" ~cat:"phase" ~proc:"p" ~thread:"t" ~start:(Time.sec 5) () in
  (try
     ignore (Span.duration open_span);
     Alcotest.fail "duration of an open span accepted"
   with Invalid_argument _ -> ());
  try
    Span.finish open_span ~at:(Time.sec 4) ();
    Alcotest.fail "stop before start accepted"
  with Invalid_argument _ -> ()

let test_well_formed_flags_problems () =
  let root = mk "root" "migration" 0.0 10.0 in
  let escapee = mk "escapee" "phase" 5.0 12.0 in
  Span.add_child root escapee;
  let unfinished =
    Span.create ~name:"open" ~cat:"phase" ~proc:"proc" ~thread:"thr" ~start:(Time.sec 1) ()
  in
  Span.add_child root unfinished;
  let problems = Span.well_formed root in
  Alcotest.(check int) "two problems" 2 (List.length problems);
  Alcotest.(check bool) "escapee reported" true
    (List.exists (fun p -> contains p "escapee") problems);
  Alcotest.(check bool) "unfinished reported" true
    (List.exists (fun p -> contains p "not finished") problems)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_basics () =
  let m = Metrics.create () in
  Alcotest.(check bool) "fresh registry is empty" true (Metrics.is_empty m);
  Metrics.incr m "c";
  Metrics.incr m ~by:2.5 "c";
  Metrics.gauge m "g" 3.0;
  Metrics.gauge m "g" 1.0;
  Metrics.observe m "h" 2.0;
  Metrics.observe m "h" 1.0;
  Alcotest.(check (option (float 1e-9))) "counter sums" (Some 3.5) (Metrics.value m "c");
  Alcotest.(check (option (float 1e-9))) "gauge keeps high-water" (Some 3.0)
    (Metrics.value m "g");
  Alcotest.(check (option (float 1e-9))) "histogram has no value" None (Metrics.value m "h");
  Alcotest.(check (list (float 1e-9))) "samples in recording order" [ 2.0; 1.0 ]
    (Metrics.samples m "h");
  Alcotest.(check (list string)) "names sorted" [ "c"; "g"; "h" ] (Metrics.names m);
  Alcotest.(check bool) "kinds" true
    (Metrics.kind_of m "c" = Some Metrics.Counter
    && Metrics.kind_of m "g" = Some Metrics.Gauge
    && Metrics.kind_of m "h" = Some Metrics.Histogram
    && Metrics.kind_of m "absent" = None);
  (try
     ignore (Metrics.samples m "c");
     Alcotest.fail "samples of a counter accepted"
   with Invalid_argument _ -> ());
  try
    Metrics.incr m "g";
    Alcotest.fail "kind clash accepted"
  with Invalid_argument _ -> ()

let test_metrics_merge_is_order_insensitive () =
  let build salt =
    let m = Metrics.create () in
    Metrics.incr m ~by:(float_of_int salt) "migrations";
    Metrics.gauge m "fence.vms.max" (float_of_int (salt * 3 mod 7));
    List.iter
      (fun i -> Metrics.observe m "latency" (float_of_int ((salt * i * 37) mod 11)))
      [ 1; 2; 3 ];
    m
  in
  let parts = List.map build [ 1; 2; 3; 4 ] in
  let merged order =
    let into = Metrics.create () in
    List.iter (fun i -> Metrics.merge_into ~into (List.nth parts i)) order;
    Metrics.to_csv into
  in
  let a = merged [ 0; 1; 2; 3 ] and b = merged [ 3; 1; 0; 2 ] in
  Alcotest.(check string) "any merge order renders identically" a b;
  Alcotest.(check bool) "histogram rows carry percentiles" true (contains a "p95")

(* to_csv/to_table row order is the sorted metric name, never the
   registration order — pinned with every permutation of a small
   registry, because Hashtbl iteration order would otherwise leak
   straight into the serve report and break -j byte-identity. *)
let test_metrics_rendering_order_insensitive () =
  let names = [ "zeta.count"; "alpha.gauge"; "mid.hist"; "ctl.queue" ] in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l
  in
  let build order =
    let m = Metrics.create () in
    List.iter
      (fun name ->
        match name with
        | "zeta.count" -> Metrics.incr m ~by:5.0 name
        | "alpha.gauge" -> Metrics.gauge m name 2.5
        | "mid.hist" -> List.iter (Metrics.observe m name) [ 1.0; 4.0; 9.0 ]
        | _ -> Metrics.incr m name)
      order;
    m
  in
  let reference = Metrics.to_csv (build names) in
  let ref_rows =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' reference)
  in
  Alcotest.(check bool) "reference rows are name-sorted" true
    (List.for_all2
       (fun row name -> String.length row > String.length name
                        && String.sub row 0 (String.length name + 1) = name ^ ",")
       (List.tl ref_rows)
       (List.sort String.compare names));
  List.iter
    (fun order ->
      let m = build order in
      Alcotest.(check string) "csv ignores registration order" reference
        (Metrics.to_csv m);
      Alcotest.(check string) "table ignores registration order"
        (Format.asprintf "%a" Table.pp (Metrics.to_table (build names)))
        (Format.asprintf "%a" Table.pp (Metrics.to_table m)))
    (permutations names)

let test_metrics_table_percentiles () =
  let m = Metrics.create () in
  (* 1..100 inserted out of order: nearest-rank p50/p95/p99 on the sorted
     sample are exactly 50/95/99. *)
  List.iter
    (fun i -> Metrics.observe m "h" (float_of_int (((i * 61) mod 100) + 1)))
    (List.init 100 Fun.id);
  let csv = Metrics.to_csv m in
  let row =
    List.find (fun l -> String.length l > 2 && String.sub l 0 2 = "h,")
      (String.split_on_char '\n' csv)
  in
  Alcotest.(check string) "nearest-rank percentiles on the sorted sample"
    "h,histogram,100,5050,50.5,1,50,95,99,100" row

(* ------------------------------------------------------------------ *)
(* Recorder: bus-event reassembly *)

(* A recorder attached to the bus reassembles the very tree that one fed
   the same payloads directly builds — the pairing [Ninja.migrate] relies
   on — and closing spans feed the taxonomy histograms. *)
let test_recorder_reassembles_tree () =
  let sim = Sim.create ~seed:env_seed () in
  let probes = Probe.create sim in
  let r = Recorder.create () and local = Recorder.create () in
  let sub = Recorder.attach r probes in
  nested_track sim (fun payload ->
      Probe.emit probes payload;
      record_now sim local payload);
  Sim.run sim;
  Probe.detach probes sub;
  Alcotest.(check (list string)) "no anomalies" [] (Recorder.anomalies r);
  Alcotest.(check int) "all spans closed" 0 (Recorder.open_spans r);
  (match (Recorder.roots local, Recorder.roots r) with
  | [ l ], [ w ] -> check_same_tree "root" l w
  | l, w ->
    Alcotest.failf "expected one root on each side, got %d local / %d reconstructed"
      (List.length l) (List.length w));
  (* Closing spans fed the taxonomy histograms. *)
  let m = Recorder.metrics r in
  Alcotest.(check int) "two phase samples" 2
    (List.length (Metrics.samples m "phase.a.seconds")
    + List.length (Metrics.samples m "phase.b.seconds"));
  Alcotest.(check (list (float 1e-9))) "migration total" [ 4.0 ]
    (Metrics.samples m "migration.total.seconds");
  (* note (2s) + c (1s) *)
  Alcotest.(check (float 1e-9)) "retry seconds" 3.0
    (List.fold_left ( +. ) 0.0 (Metrics.samples m "retry.lost.seconds"))

let test_recorder_anomalies () =
  let sim = Sim.create ~seed:env_seed () in
  let probes = Probe.create sim in
  let r = Recorder.create () in
  let _sub = Recorder.attach r probes in
  let span_end name = Probe.Span_end { name; proc = "p"; thread = "t"; args = [] } in
  Probe.emit probes (span_end "ghost");
  Probe.emit probes
    (Probe.Span_begin { name = "a"; cat = "phase"; proc = "p"; thread = "t"; args = [] });
  Probe.emit probes (span_end "mismatch");
  let anomalies = Recorder.anomalies r in
  Alcotest.(check int) "two anomalies" 2 (List.length anomalies);
  Alcotest.(check bool) "end without begin" true
    (List.exists (fun a -> contains a "without a begin") anomalies);
  Alcotest.(check int) "mismatched end still closes" 0 (Recorder.open_spans r)

let test_recorder_metrics_from_instants () =
  let sim = Sim.create ~seed:env_seed () in
  let probes = Probe.create sim in
  let r = Recorder.create () in
  let _sub = Recorder.attach r probes in
  Sim.spawn sim (fun () ->
      Probe.emit probes (Probe.Migrate_start { batch = ""; origins = [] });
      Probe.emit probes
        (Probe.Fence_enter { id = ""; vms = List.init 8 (Printf.sprintf "vm%d") });
      Sim.sleep (Time.sec 2);
      Probe.emit probes (Probe.Fence_release { id = ""; vms = [] });
      Probe.emit probes
        (Probe.Migration_done
           { vm = "vm0"; src = "ib00"; dst = "eth00"; mode = "precopy"; bytes = 1000.0;
             rounds = 3; downtime = Time.ms 500 });
      Probe.emit probes (Probe.Fault { point = "precopy-abort"; site = "vm0"; firing = 1 });
      Probe.emit probes (Probe.Node_death { node = "eth00" });
      Probe.emit probes
        (Probe.Plan_built { steps = 4; deps = 0; acyclic = true; staged = 0; overcommits = 0 });
      Probe.emit probes
        (Probe.Executor_report
           { steps = 4; failures = 1; retries = 2; rerouted = 0; permits_leaked = 0 });
      Probe.emit probes (Probe.Migrate_giveup { vm = "vm1"; phase = "" });
      Probe.emit probes
        (Probe.Migrate_rollback { batch = ""; origins = []; reason = "test"; lost = [] });
      Probe.emit probes (Probe.Migrate_complete { batch = "" }));
  Sim.run sim;
  let m = Recorder.metrics r in
  let counter name expected =
    Alcotest.(check (option (float 1e-9))) name (Some expected) (Metrics.value m name)
  in
  counter "migrations.started" 1.0;
  counter "migrations.completed" 1.0;
  counter "migrations.rolled_back" 1.0;
  counter "migrations.gave_up" 1.0;
  counter "precopy.bytes" 1000.0;
  counter "precopy.rounds" 3.0;
  counter "faults.injected" 1.0;
  counter "node.deaths" 1.0;
  counter "plans.built" 1.0;
  counter "executor.steps" 4.0;
  counter "executor.failures" 1.0;
  counter "executor.retries" 2.0;
  counter "fence.vms.max" 8.0;
  Alcotest.(check (list (float 1e-9))) "fence residency" [ 2.0 ]
    (Metrics.samples m "fence.residency.seconds");
  Alcotest.(check (list (float 1e-9))) "vm downtime" [ 0.5 ]
    (Metrics.samples m "vm.downtime.seconds");
  Alcotest.(check int) "every event kept as an instant" 11
    (List.length (Recorder.instants r));
  Alcotest.(check int) "events counted" 11 (Recorder.events_seen r);
  check_time "newest event timestamp" (Time.sec 2) (Recorder.last_at r)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let test_export_fragment_shape () =
  let root = mk ~args:[ ("quo\"te", "line\nbreak") ] "mig\"ration" "migration" 0.0 4.0 in
  Span.add_child root (mk "a" "phase" 1.0 3.0);
  let instant =
    let payload = Probe.Fence_enter { id = ""; vms = [ "vm0"; "vm1" ] } in
    { Probe.at = Time.sec 2; topic = Probe.topic payload; payload }
  in
  let frag = Export.fragment ~instants:[ instant ] [ root ] in
  Alcotest.(check int) "one complete event per span" 2 (count_substring frag {|"ph":"X"|});
  Alcotest.(check int) "one instant" 1 (count_substring frag {|"ph":"i"|});
  Alcotest.(check int) "metadata: two procs, two threads" 4
    (count_substring frag {|"ph":"M"|});
  Alcotest.(check bool) "quotes escaped" true (contains frag {|mig\"ration|});
  Alcotest.(check bool) "newlines escaped" true (contains frag {|line\nbreak|});
  Alcotest.(check bool) "microsecond timestamps" true (contains frag {|"ts":1000000.000|});
  Alcotest.(check bool) "durations in microseconds" true (contains frag {|"dur":2000000.000|});
  (* Identical trees render identically: track ids hash from names alone. *)
  let root' = mk ~args:[ ("quo\"te", "line\nbreak") ] "mig\"ration" "migration" 0.0 4.0 in
  Span.add_child root' (mk "a" "phase" 1.0 3.0);
  Alcotest.(check string) "deterministic rendering" frag
    (Export.fragment ~instants:[ instant ] [ root' ]);
  let prefixed = Export.fragment ~track_prefix:"fig6#0/" [ root ] in
  Alcotest.(check bool) "prefix namespaces the process track" true
    (contains prefixed {|"name":"fig6#0/proc"|});
  Alcotest.(check string) "nothing to render" "" (Export.fragment [])

let test_export_unfinished_closed_at_upto () =
  let s = Span.create ~name:"open" ~cat:"phase" ~proc:"p" ~thread:"t" ~start:(Time.sec 1) () in
  let frag = Export.fragment ~upto:(Time.sec 5) [ s ] in
  Alcotest.(check bool) "marked unfinished" true (contains frag {|"unfinished":"true"|});
  Alcotest.(check bool) "runs to upto" true (contains frag {|"dur":4000000.000|})

let test_export_document () =
  let frag = Export.fragment [ mk "s" "phase" 0.0 1.0 ] in
  let doc = Export.document [ ""; frag; "" ] in
  Alcotest.(check bool) "header" true
    (String.length doc > 40 && String.sub doc 0 40 = {|{"displayTimeUnit":"ms","traceEvents":[
|});
  Alcotest.(check bool) "footer" true (contains doc "\n]}\n");
  Alcotest.(check int) "empty fragments dropped" 1 (count_substring doc {|"ph":"X"|});
  (* No fragments at all still forms a loadable document. *)
  Alcotest.(check string) "empty document" "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n"
    (Export.document [])

let test_breakdown_of_root () =
  let root = mk "migration" "migration" 0.0 100.0 in
  Span.add_child root (mk "coordination" "phase" 0.0 5.0);
  Span.add_child root (mk "detach" "phase" 5.0 10.0);
  let precopy = mk "precopy" "phase" 10.0 50.0 in
  Span.add_child precopy (mk "retry-attempt" "retry" 20.0 30.0);
  Span.add_child precopy (mk "backoff" "retry" 30.0 35.0);
  Span.add_child root precopy;
  Span.add_child root (mk "attach" "phase" 50.0 55.0);
  let rollback = mk "rollback" "rollback" 55.0 80.0 in
  (* Inside the rollback subtree: already part of its duration, must not
     be double-billed. *)
  Span.add_child rollback (mk "retry-attempt" "retry" 60.0 70.0);
  Span.add_child root rollback;
  Span.add_child root (mk "link-up" "phase" 90.0 100.0);
  let b = Export.breakdown_of_root root in
  Alcotest.(check (float 1e-9)) "coordination" 5.0 (sec b.Breakdown.coordination);
  Alcotest.(check (float 1e-9)) "detach" 5.0 (sec b.Breakdown.detach);
  Alcotest.(check (float 1e-9)) "migration = precopy" 40.0 (sec b.Breakdown.migration);
  Alcotest.(check (float 1e-9)) "attach" 5.0 (sec b.Breakdown.attach);
  Alcotest.(check (float 1e-9)) "linkup" 10.0 (sec b.Breakdown.linkup);
  Alcotest.(check (float 1e-9)) "retry = rollback + retries outside it" 40.0
    (sec b.Breakdown.retry);
  Alcotest.(check (float 1e-9)) "total" 100.0 (sec b.Breakdown.total);
  let open_root =
    Span.create ~name:"migration" ~cat:"migration" ~proc:"p" ~thread:"t" ~start:Time.zero ()
  in
  try
    ignore (Export.breakdown_of_root open_root);
    Alcotest.fail "breakdown of an unfinished root accepted"
  with Invalid_argument _ -> ()

(* The span tree a postcopy migration that ends [Lost] leaves behind:
   the migration phase is named "postcopy" (mode-named, not "precopy"),
   the attach phase never ran (the switchover committed, then the source
   died mid-drain), and the rollback subtree holds the three rollback
   phases that skipped the lost VM. The breakdown must still derive
   cleanly: [migration] reads the postcopy child, [attach] is zero for
   the absent phase, and the rollback is charged once to [retry]. *)
let test_breakdown_postcopy_lost () =
  let root = mk "migration" "migration" 0.0 90.0 in
  Span.add_child root (mk "coordination" "phase" 0.0 4.0);
  Span.add_child root (mk "detach" "phase" 4.0 10.0);
  let postcopy = mk "postcopy" "phase" 10.0 40.0 in
  (* One failed re-issue before the phase gave the VM up as lost. *)
  Span.add_child postcopy (mk "attempt-1" "retry" 25.0 32.0);
  Span.add_child root postcopy;
  let rollback = mk "rollback" "rollback" 40.0 70.0 ~args:[ ("reason", "source died") ] in
  Span.add_child rollback (mk "rollback-detach" "phase" 40.0 45.0);
  let return_phase = mk "rollback-return" "phase" 45.0 65.0 in
  (* Survivors retry their precopy trip home inside the rollback: already
     part of its duration, must not be double-billed. *)
  Span.add_child return_phase (mk "attempt-1" "retry" 50.0 58.0);
  Span.add_child rollback return_phase;
  Span.add_child rollback (mk "rollback-attach" "phase" 65.0 70.0);
  Span.add_child root rollback;
  Span.add_child root (mk "link-up" "phase" 82.0 90.0);
  Alcotest.(check (list string)) "lost tree is well formed" [] (Span.well_formed root);
  let b = Export.breakdown_of_root root in
  Alcotest.(check (float 1e-9)) "coordination" 4.0 (sec b.Breakdown.coordination);
  Alcotest.(check (float 1e-9)) "detach" 6.0 (sec b.Breakdown.detach);
  Alcotest.(check (float 1e-9)) "migration reads the postcopy child" 30.0
    (sec b.Breakdown.migration);
  Alcotest.(check (float 1e-9)) "attach never ran" 0.0 (sec b.Breakdown.attach);
  Alcotest.(check (float 1e-9)) "linkup" 8.0 (sec b.Breakdown.linkup);
  Alcotest.(check (float 1e-9)) "retry = rollback + failed postcopy attempt" 37.0
    (sec b.Breakdown.retry);
  Alcotest.(check (float 1e-9)) "total" 90.0 (sec b.Breakdown.total)

(* ------------------------------------------------------------------ *)
(* End-to-end: the bus-reconstructed migration root re-derives exactly
   the breakdown [Ninja.fallback] returns *)

let setup_agc () =
  let sim = Sim.create ~seed:env_seed () in
  (sim, Cluster.create sim ~spec:Spec.agc ())

let ib_hosts cluster n =
  List.init n (fun i -> Cluster.find_node cluster (Printf.sprintf "ib%02d" i))

let eth_hosts cluster n =
  List.init n (fun i -> Cluster.find_node cluster (Printf.sprintf "eth%02d" i))

let iteration_workload ~until ctx =
  while Mpi.wtime ctx < until do
    Mpi.compute ctx ~seconds:0.3;
    Mpi.allreduce ctx ~bytes:2.0e8;
    Mpi.checkpoint_point ctx
  done

let run_fallback ?(faults = []) ~vms () =
  let sim, cluster = setup_agc () in
  List.iter
    (fun text ->
      match Injector.parse_spec text with
      | Ok spec -> Injector.arm_spec (Cluster.injector cluster) spec
      | Error e -> Alcotest.failf "bad fault spec %S: %s" text e)
    faults;
  let ninja = Ninja.setup cluster ~hosts:(ib_hosts cluster vms) () in
  ignore (Ninja.launch ninja ~procs_per_vm:1 (iteration_workload ~until:120.0));
  let b = ref Breakdown.zero in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 10);
      b := Ninja.fallback ninja ~dsts:(eth_hosts cluster vms) ();
      Ninja.wait_job ninja);
  let r = Recorder.create () in
  Probe.with_subscriber (Cluster.probes cluster) (Recorder.on_event r) (fun () ->
      Sim.run sim);
  (ninja, r, !b)

let migration_roots r =
  List.filter (fun (s : Span.t) -> s.Span.cat = "migration") (Recorder.roots r)

let assert_sound r =
  Alcotest.(check (list string)) "no anomalies" [] (Recorder.anomalies r);
  Alcotest.(check int) "no span left open" 0 (Recorder.open_spans r);
  List.iter
    (fun root -> Alcotest.(check (list string)) "well-formed" [] (Span.well_formed root))
    (Recorder.roots r)

let test_e2e_breakdown_matches () =
  let ninja, r, b = run_fallback ~vms:4 () in
  Alcotest.(check bool) "completed" true (Ninja.last_outcome ninja = Some Ninja.Completed);
  assert_sound r;
  match migration_roots r with
  | [ root ] ->
    check_breakdown_eq "bus-reconstructed breakdown" b (Export.breakdown_of_root root);
    Alcotest.(check bool) "fault-free run billed no retry" true
      (sec b.Breakdown.retry = 0.0);
    let m = Recorder.metrics r in
    Alcotest.(check (option (float 1e-9))) "started" (Some 1.0)
      (Metrics.value m "migrations.started");
    Alcotest.(check (option (float 1e-9))) "completed" (Some 1.0)
      (Metrics.value m "migrations.completed");
    Alcotest.(check int) "one total-duration sample" 1
      (List.length (Metrics.samples m "migration.total.seconds"));
    Alcotest.(check bool) "precopy traffic counted" true
      (match Metrics.value m "precopy.bytes" with Some v -> v > 1e9 | None -> false);
    Alcotest.(check int) "one downtime sample per VM" 4
      (List.length (Metrics.samples m "vm.downtime.seconds"))
  | roots -> Alcotest.failf "expected one migration root, got %d" (List.length roots)

let test_e2e_rollback_breakdown_matches () =
  let ninja, r, b = run_fallback ~faults:[ "precopy-abort:count=inf" ] ~vms:2 () in
  Alcotest.(check bool) "rolled back" true
    (match Ninja.last_outcome ninja with Some (Ninja.Rolled_back _) -> true | _ -> false);
  assert_sound r;
  match migration_roots r with
  | [ root ] ->
    check_breakdown_eq "bus-reconstructed breakdown" b (Export.breakdown_of_root root);
    Alcotest.(check bool) "retry time billed" true (sec b.Breakdown.retry > 0.0);
    Alcotest.(check bool) "rollback child present" true
      (Span.find_child root "rollback" <> None);
    Alcotest.(check (option (float 1e-9))) "rollback counted" (Some 1.0)
      (Metrics.value (Recorder.metrics r) "migrations.rolled_back")
  | roots -> Alcotest.failf "expected one migration root, got %d" (List.length roots)

(* ------------------------------------------------------------------ *)
(* Fuzz: every scenario's reconstructed span trees are sound *)

let spans_well_formed_prop =
  QCheck.Test.make ~name:"recorder trees from fuzz scenarios are well-formed" ~count:20
    QCheck.small_int (fun salt ->
      let prng = Prng.create ~seed:(salted salt) in
      let sc = Scenario.gen prng in
      let r = Recorder.create () in
      let result =
        Runner.run
          ~attach:(fun cluster -> ignore (Recorder.attach r (Cluster.probes cluster)))
          sc
      in
      match result.Runner.outcome with
      | Runner.Crashed msg ->
        QCheck.Test.fail_reportf "scenario crashed: %s (%s)" msg (Scenario.to_string sc)
      | Runner.Passed | Runner.Violated _ ->
        (match Recorder.anomalies r with
        | [] -> ()
        | a :: _ -> QCheck.Test.fail_reportf "recorder anomaly: %s" a);
        if Recorder.open_spans r <> 0 then
          QCheck.Test.fail_reportf "%d span(s) left open" (Recorder.open_spans r);
        List.for_all
          (fun root ->
            match Span.well_formed root with
            | [] -> true
            | p :: _ -> QCheck.Test.fail_reportf "ill-formed tree: %s" p)
          (Recorder.roots r))

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Flowmon: sampled reconstruction and live monitors *)

module Fabric = Ninja_flownet.Fabric

(* The estimator must land within 10% of every declared rate once the
   warm-up has passed — the bound the learned-pricing mode relies on.
   With 1-in-16 sampling of 1500 B packets over a 540 s window, even
   the smallest rate here accumulates ~9000 samples, so the Poisson
   relative error (~1/sqrt S) sits near 1%. *)
let test_flowmon_estimation () =
  let sim = Sim.create ~seed:env_seed () in
  let cluster = Cluster.create sim ~spec:Spec.agc () in
  (* Both directions of vm0-vm1 declared separately: the monitor must
     merge them into one canonical pair before sampling. *)
  let declared =
    [
      ("vm1", "vm0", 5.0e5);
      ("vm0", "vm1", 1.0e6);
      ("vm1", "vm2", 4.0e5);
      ("vm0", "vm3", 2.5e6);
    ]
  in
  let fm = Flowmon.create cluster ~traffic:declared in
  Flowmon.start fm ~horizon:600.0;
  Sim.run sim;
  Alcotest.(check int) "one tick per period" 120 (Flowmon.ticks fm);
  let w = Flowmon.observed_window fm in
  Alcotest.(check (float 1e-9)) "post-warmup window" 540.0 w;
  let learned = Ninja_workloads.Traffic.of_observations ~window:w (Flowmon.samples fm) in
  Alcotest.(check int) "one learned row per canonical pair" 3 (List.length learned);
  let expected =
    [ ("vm0", "vm1", 1.5e6); ("vm0", "vm3", 2.5e6); ("vm1", "vm2", 4.0e5) ]
  in
  List.iter2
    (fun (a, b, rate) (a', b', est) ->
      Alcotest.(check string) "pair src" a a';
      Alcotest.(check string) "pair dst" b b';
      let err = Float.abs (est -. rate) /. rate in
      if err > 0.10 then
        Alcotest.failf "%s-%s: learned %.3g B/s vs declared %.3g B/s (%.1f%% error)" a b
          est rate (err *. 100.0))
    expected learned;
  Alcotest.(check bool) "Flowmon.learned is the same inversion" true
    (List.for_all2
       (fun (a, b, r) (a', b', r') -> a = a' && b = b' && Float.abs (r -. r') < 1e-6)
       learned (Flowmon.learned fm))

(* One out-of-range value per config field. The float fields take nan
   or inf, which ordered comparisons alone let through: a nan warm-up
   never warms up, a nan snapshot interval never snapshots, and a
   non-finite packet size makes every estimate meaningless. *)
let test_flowmon_config_validation () =
  let sim = Sim.create ~seed:env_seed () in
  let cluster = Cluster.create sim ~spec:Spec.agc () in
  let d = Flowmon.default_config in
  List.iter
    (fun (field, config) ->
      match Flowmon.create ~config cluster ~traffic:[] with
      | exception Invalid_argument _ -> ()
      | fm ->
        Flowmon.detach fm;
        Alcotest.failf "bad %s accepted" field)
    [
      ("period", { d with period = Float.nan });
      ("retain", { d with retain = 0 });
      ("window", { d with window = d.retain + 1 });
      ("sample_rate", { d with sample_rate = 0 });
      ("pkt_bytes", { d with pkt_bytes = Float.infinity });
      ("hot_threshold", { d with hot_threshold = Float.nan });
      ("warmup", { d with warmup = Float.nan });
      ("snapshot_every", { d with snapshot_every = Float.nan });
    ]

(* A terminal control-plane request as [Service] announces it: a missed
   deadline is a drop, anything else here a completion. *)
let request_done tenant ~missed =
  Probe.Request_done
    {
      tenant;
      outcome = (if missed then "dropped:deadline-missed" else "completed");
      kind = "rebalance";
      missed;
      completed = not missed;
      latency = 1.0;
    }

let test_flowmon_hotspot_and_burn () =
  let sim = Sim.create ~seed:env_seed () in
  let cluster = Cluster.create sim ~spec:Spec.agc () in
  let fabric = Cluster.fabric cluster in
  let link = List.hd (Fabric.links fabric) in
  let cfg =
    { Flowmon.default_config with period = 1.0; retain = 32; window = 4; warmup = 0.0 }
  in
  let fm = Flowmon.create ~config:cfg cluster ~traffic:[] in
  Flowmon.start fm ~horizon:40.0;
  (* One flow saturating a single link for longer than the horizon: its
     windowed p95 utilization ratio is exactly 1.0, past the 0.8 bar. *)
  Sim.spawn sim (fun () ->
      Fabric.transfer fabric ~route:[ link ] ~bytes:(Fabric.link_capacity link *. 120.0));
  (* Requests land at x.5 offsets so they never tie with a tick: two
     tenants, tenant-b missing every other deadline. *)
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.ms 500);
      for i = 1 to 20 do
        Sim.sleep (Time.sec 2);
        Probe.emit (Cluster.probes cluster) (request_done "tenant-a" ~missed:false);
        Probe.emit (Cluster.probes cluster) (request_done "tenant-b" ~missed:(i mod 2 = 0))
      done);
  Sim.run sim;
  (match Flowmon.hotspots fm with
  | [ (name, ratio) ] ->
    Alcotest.(check string) "the saturated link is hot" (Fabric.link_name link) name;
    Alcotest.(check bool) "ratio at the cap" true (ratio >= 0.99)
  | hs -> Alcotest.failf "expected exactly one hot link, got %d" (List.length hs));
  (* Last window (ticks 37..40) saw 4 terminal requests, 1 missed. *)
  Alcotest.(check (float 1e-9)) "burn rate over the window" 0.25 (Flowmon.burn_rate fm);
  (match Flowmon.slo_attainment fm with
  | [ ("tenant-a", 20, 0, a); ("tenant-b", 10, 10, b) ] ->
    Alcotest.(check (float 1e-9)) "tenant-a attainment" 1.0 a;
    Alcotest.(check (float 1e-9)) "tenant-b attainment" 0.5 b
  | rows -> Alcotest.failf "unexpected SLO rows (%d)" (List.length rows));
  let snap = Flowmon.snapshot fm in
  Alcotest.(check bool) "snapshot counts the hot link" true
    (contains snap "flowmon_hot_links 1");
  Alcotest.(check bool) "snapshot exposes the burn rate" true
    (contains snap "flowmon_slo_burn_rate 0.25");
  Flowmon.detach fm

(* ------------------------------------------------------------------ *)
(* Ring: fixed-capacity windowed aggregates *)

let test_ring_basics () =
  (match Ring.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero capacity accepted");
  let r = Ring.create ~capacity:4 in
  Alcotest.(check (option (float 0.0))) "empty last" None (Ring.last r);
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Ring.mean r));
  Alcotest.(check bool) "empty max is nan" true (Float.is_nan (Ring.max r));
  Alcotest.(check bool) "empty p95 is nan" true (Float.is_nan (Ring.percentile r 95.0));
  List.iter (Ring.push r) [ 1.0; 2.0; 3.0 ];
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check (option (float 0.0))) "last" (Some 3.0) (Ring.last r);
  Alcotest.(check (list (float 0.0))) "to_list oldest first" [ 1.0; 2.0; 3.0 ]
    (Ring.to_list r);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Ring.mean r);
  Alcotest.(check (float 1e-9)) "windowed mean n=2" 2.5 (Ring.mean ~n:2 r);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Ring.max r);
  match Ring.mean ~n:0 r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive window accepted"

let test_ring_wraparound () =
  let r = Ring.create ~capacity:3 in
  (* Seven pushes through a 3-slot ring: only the newest three survive,
     and every aggregate reads them oldest-first. *)
  List.iter (Ring.push r) [ 10.0; 20.0; 30.0; 40.0; 5.0; 60.0; 50.0 ]
  ;
  Alcotest.(check int) "length capped at capacity" 3 (Ring.length r);
  Alcotest.(check int) "pushed counts evictions" 7 (Ring.pushed r);
  Alcotest.(check (list (float 0.0))) "retained window" [ 5.0; 60.0; 50.0 ]
    (Ring.to_list r);
  Alcotest.(check (option (float 0.0))) "last" (Some 50.0) (Ring.last r);
  Alcotest.(check (float 1e-9)) "max over retained" 60.0 (Ring.max r);
  Alcotest.(check (float 1e-9)) "windowed max n=1" 50.0 (Ring.max ~n:1 r);
  Alcotest.(check (float 1e-9)) "fold oldest-first" 1150.0
    (Ring.fold (fun acc v -> (acc *. 10.0) +. v) 0.0 r);
  (* An oversized window clamps to what is retained. *)
  Alcotest.(check (float 1e-9)) "oversized window clamps" (115.0 /. 3.0)
    (Ring.mean ~n:100 r)

let test_ring_percentile () =
  let r = Ring.create ~capacity:100 in
  (* 1..100 pushed out of order (wrapping a few times first): nearest
     rank on the sorted retained window gives exact values. *)
  List.iter (fun i -> Ring.push r (float_of_int i)) (List.init 40 (fun i -> i - 50));
  List.iter
    (fun i -> Ring.push r (float_of_int (((i * 61) mod 100) + 1)))
    (List.init 100 Fun.id);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Ring.percentile r 50.0);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Ring.percentile r 95.0);
  Alcotest.(check (float 1e-9)) "p0 is the min" 1.0 (Ring.percentile r 0.0);
  Alcotest.(check (float 1e-9)) "p100 is the max" 100.0 (Ring.percentile r 100.0);
  Alcotest.(check (float 1e-9)) "windowed p95 reads the newest n" 96.0
    (Ring.percentile ~n:5 r 95.0);
  match Ring.percentile r 101.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range percentile accepted"

(* The ring's windowed percentile is the one nearest-rank definition
   ({!Stats.percentile}) applied to the retained window. *)
let ring_percentile_matches_stats_prop =
  QCheck.Test.make ~name:"Ring.percentile ~n equals Stats.percentile over the window"
    ~count:500
    QCheck.(
      quad (int_range 1 16)
        (list_of_size Gen.(int_range 0 40) (map float_of_int (int_range (-5) 20)))
        (int_range 1 20) (float_bound_inclusive 100.0))
    (fun (capacity, pushes, n, p) ->
      let r = Ring.create ~capacity in
      List.iter (Ring.push r) pushes;
      let len = List.length pushes in
      let w = min n (min capacity len) in
      let window = List.filteri (fun i _ -> i >= len - w) pushes in
      let got = Ring.percentile ~n r p in
      if window = [] then Float.is_nan got else Float.equal got (Stats.percentile p window))

(* A windowed percentile kept across pushes — re-read only when
   [Ring.push_changes] reports the window changed, as the flow monitor's
   per-link p95 is — always equals one recomputed from scratch. Samples
   come from a tiny alphabet, so runs of equal values (zeros included)
   are common; windows range from shorter than the ring to its whole
   capacity. *)
let ring_kept_percentile_prop =
  QCheck.Test.make ~name:"a percentile kept through push_changes equals a fresh one"
    ~count:500
    QCheck.(
      quad (int_range 1 12)
        (list_of_size Gen.(int_range 0 60) (map float_of_int (int_range 0 3)))
        (int_range 0 12) (float_bound_inclusive 100.0))
    (fun (capacity, pushes, shorter, p) ->
      let n = Stdlib.max 1 (capacity - shorter) in
      let r = Ring.create ~capacity in
      let kept = ref 0.0 in
      List.for_all
        (fun v ->
          if Ring.push_changes r ~n v then kept := Ring.percentile ~n r p;
          Float.equal !kept (Ring.percentile ~n r p))
        pushes)

let () =
  Alcotest.run "ninja_telemetry"
    [
      ( "span",
        [
          Alcotest.test_case "scope builds a nested tree" `Quick test_scope_builds_tree;
          Alcotest.test_case "note clamps a future start" `Quick test_note_clamps_future_start;
          Alcotest.test_case "lifecycle guards" `Quick test_span_guards;
          Alcotest.test_case "well_formed flags problems" `Quick
            test_well_formed_flags_problems;
        ] );
      ( "flowmon",
        [
          Alcotest.test_case "reconstruction within 10%" `Quick test_flowmon_estimation;
          Alcotest.test_case "hotspots, burn rate, SLO attainment" `Quick
            test_flowmon_hotspot_and_burn;
          Alcotest.test_case "config rejects out-of-range values" `Quick
            test_flowmon_config_validation;
        ] );
      ( "ring",
        [
          Alcotest.test_case "push, last, windowed aggregates" `Quick test_ring_basics;
          Alcotest.test_case "wraparound keeps the newest window" `Quick
            test_ring_wraparound;
          Alcotest.test_case "nearest-rank percentiles" `Quick test_ring_percentile;
          QCheck_alcotest.to_alcotest ring_percentile_matches_stats_prop;
          QCheck_alcotest.to_alcotest ring_kept_percentile_prop;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters, gauges, histograms" `Quick test_metrics_basics;
          Alcotest.test_case "rendering ignores registration order" `Quick
            test_metrics_rendering_order_insensitive;
          Alcotest.test_case "merge order cannot matter" `Quick
            test_metrics_merge_is_order_insensitive;
          Alcotest.test_case "table percentiles" `Quick test_metrics_table_percentiles;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "reassembles the emitted tree" `Quick
            test_recorder_reassembles_tree;
          Alcotest.test_case "anomalies on a broken stream" `Quick test_recorder_anomalies;
          Alcotest.test_case "protocol metrics from instants" `Quick
            test_recorder_metrics_from_instants;
        ] );
      ( "export",
        [
          Alcotest.test_case "fragment shape and escaping" `Quick test_export_fragment_shape;
          Alcotest.test_case "unfinished spans close at upto" `Quick
            test_export_unfinished_closed_at_upto;
          Alcotest.test_case "document wrapping" `Quick test_export_document;
          Alcotest.test_case "breakdown re-derivation" `Quick test_breakdown_of_root;
          Alcotest.test_case "breakdown of a postcopy Lost tree" `Quick
            test_breakdown_postcopy_lost;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "fault-free breakdown matches exactly" `Quick
            test_e2e_breakdown_matches;
          Alcotest.test_case "rollback breakdown matches exactly" `Quick
            test_e2e_rollback_breakdown_matches;
        ] );
      ("fuzz", List.map QCheck_alcotest.to_alcotest [ spans_well_formed_prop ]);
    ]
