(* Measurement, correctness checks and reporting.

   An untraced run repeats the workload's round until the measured time is
   up and derives the end-to-end metrics. A traced run repeats a cycle of
   (untraced round, traced round, layer-removal rounds) and derives the
   per-layer metrics; end-to-end metrics never come from it. *)

open Workloads

type metric = {
  name : string;
  unit : string;
  better : string;
  layer : string;
  moves : string;  (** the end-to-end metric and workload it should move *)
}

let m ?(layer = "e2e") ?(moves = "") name unit better = { name; unit; better; layer; moves }

let dc = "ops_per_s on dc-serve"

let engine_moves =
  "ops_per_s and alloc_mwords on mpi-consolidation and fuzz-campaign; no change on dc-serve"

(* Gated end-to-end metrics: defined the same way on every workload, and
   steady across seeds. *)
let end_to_end =
  [ m "ops_per_s" "1/s" "higher"; m "setup_s" "s" "lower"; m "alloc_mwords" "Mwords" "lower" ]

(* Printed with them, not gated: the peak heap is set by the largest
   simulation a seed draws (fuzz-campaign spreads 32-56 MB over five
   seeds), op latency is timed one by one only on mpi-consolidation and
   fuzz-campaign, and error_rate is 0 when the outputs are correct. *)
let reported =
  [ m "peak_heap_mb" "MB" "lower"; m "op_p50_ms" "ms" "lower"; m "op_tail_ms" "ms" "lower";
    m "error_rate" "ratio" "lower" ]

let probe_topics =
  [ "fence"; "vm"; "qmp"; "plan"; "migration"; "migrate"; "ctl"; "span"; "executor"; "scheduler";
    "node"; "fault" ]

let per_layer =
  let e = m ~layer:"engine" ~moves:engine_moves in
  let probe = m ~layer:"probe" ~moves:(dc ^ "; by little on fuzz-campaign") in
  let check = m ~layer:"check" ~moves:(dc ^ "; no change on mpi-consolidation") in
  let planner = m ~layer:"planner" ~moves:dc in
  let cp = m ~layer:"controlplane" ~moves:dc in
  let tel = m ~layer:"telemetry" ~moves:dc in
  let vmm = m ~layer:"vmm" ~moves:"alloc_mwords on mpi-consolidation" in
  [ e "engine.events" "count" "lower"; e "engine.drain_s" "s" "lower";
    e "engine.ns_per_event" "ns" "lower"; e "engine.words_per_event" "words" "lower";
    m ~layer:"hardware" ~moves:"setup_s on fuzz-campaign" "hardware.build_s" "s" "lower";
    m ~layer:"hardware" ~moves:"setup_s on fuzz-campaign" "hardware.links" "count" "lower";
    m ~layer:"flownet" ~moves:dc "flownet.active_flows.max" "count" "lower";
    probe "probe.events" "count" "lower" ]
  @ List.map (fun t -> probe ("probe.events." ^ t) "count" "lower") probe_topics
  @ [ check "check.events_seen" "count" "lower"; check "check.finish_s" "s" "lower";
      check "check.cost_s" "s" "lower"; planner "planner.swap_cost_s" "s" "lower";
      planner "planner.learned_calls" "count" "lower"; planner "planner.learned_s" "s" "lower";
      cp "controlplane.boot_s" "s" "lower" ]
  @ List.map
      (fun k ->
        cp ("controlplane.requests." ^ k) "count"
          (if k = "submitted" || k = "completed" || k = "dispatched" then "higher" else "lower"))
      ctl_counters
  @ [ cp "controlplane.defer_ratio" "ratio" "lower"; cp "controlplane.swap.proposed" "count" "lower";
      cp "controlplane.swap.applied" "count" "higher"; cp "controlplane.swap_yield" "ratio" "higher";
      tel "telemetry.flowmon.ticks" "count" "lower"; tel "telemetry.snapshot_s" "s" "lower";
      tel "telemetry.flowmon_cost_s" "s" "lower"; vmm "vmm.migrate_cost_s" "s" "lower";
      vmm "vmm.migrate_mwords" "Mwords" "lower";
      m ~layer:"trace" ~moves:"none (tracing is off in end-to-end runs)" "trace.overhead_s" "s"
        "lower" ]

(* ------------------------------------------------------------------ *)
(* Workload registry *)

type removal = {
  layer_cost : string;  (** metric: drain seconds the layer costs *)
  layer_mwords : string option;  (** metric: minor words it costs, in millions *)
  without : int64 -> round;  (** the round with the layer removed *)
  approximate : bool;  (** removing the layer also changes the simulated inputs *)
}

type workload = {
  name : string;
  why : string;
  op : string;
  seeded : bool;  (** whether the seed changes the simulated inputs *)
  run : ?tr:Spans.t -> int64 -> round;
  removals : removal list;
}

let workloads =
  [ { name = "mpi-consolidation";
      why =
        "engine core (Sim, Rated, Ps_resource) and mpi collectives do nearly all the work; probe \
         bus, checker, planner and control plane are idle";
      op = "one consolidation job simulated to completion";
      seeded = false;
      run = (fun ?tr seed -> mpi_consolidation ?tr seed);
      removals =
        [ { layer_cost = "vmm.migrate_cost_s"; layer_mwords = Some "vmm.migrate_mwords";
            without = (fun seed -> mpi_consolidation ~migrate:false seed); approximate = false } ] };
    { name = "fuzz-campaign";
      why =
        "many short independent simulations: set-up, fault and rollback paths and the \
         Cloud_scheduler path repeat on every op, with the checker on but light";
      op = "one generated scenario run through Runner.run";
      seeded = true;
      run = (fun ?tr seed -> fuzz_campaign ?tr seed);
      removals = [] };
    { name = "dc-serve";
      why =
        "few events, each paying datacenter-wide work: checker link sweep, swap pricing, \
         flow-monitor ticks and Fabric re-solves";
      op = "one request reaching a terminal outcome";
      seeded = true;
      run = (fun ?tr seed -> dc_serve ?tr seed);
      removals =
        (let without layers seed = dc_serve ~layers seed in
         [ { layer_cost = "check.cost_s"; layer_mwords = None;
             without = without { serve_full with checker = false }; approximate = false };
           { layer_cost = "planner.swap_cost_s"; layer_mwords = None;
             without = without { serve_full with auto_swap = None }; approximate = true };
           { layer_cost = "telemetry.flowmon_cost_s"; layer_mwords = None;
             without = without { serve_full with flowmon = false }; approximate = true } ]) } ]

let find_workload name = List.find_opt (fun (w : workload) -> w.name = name) workloads

(* ------------------------------------------------------------------ *)
(* Statistics *)

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest of the usual percentiles with at least ten samples beyond
   it (nearest rank): (percentile, value, samples beyond). *)
let tail samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  List.find_map
    (fun p ->
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      if rank >= 1 && n - rank >= 10 then Some (p, a.(rank - 1), n - rank) else None)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let value (r : round) k = Option.value ~default:0.0 (List.assoc_opt k r.vals)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* ------------------------------------------------------------------ *)
(* Correctness *)

(* Recorded digests: "<workload> <seed|*> <md5>" lines. *)
let load_digests path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; s; d ] when w <> "" && w.[0] <> '#' -> Some ((w, s), d)
           | _ -> None)

let recorded table ~workload ~seed =
  match List.assoc_opt (workload, Int64.to_string seed) table with
  | Some d -> Some d
  | None -> List.assoc_opt (workload, "*") table

(* Failed ops of each round: its own failures, plus every op whose digest
   differs from the first round's; when the seed has a recorded digest and
   the first round does not match it, every op. *)
let check_rounds ~expected rounds =
  match rounds with
  | [] -> []
  | first :: _ ->
    let matches = match expected with None -> true | Some d -> first.digest = d in
    List.map
      (fun r ->
        if not matches then (r, r.ops, [ "digest differs from the recorded digest" ])
        else
          let per = max 1 (r.ops / max 1 (List.length r.op_digests)) in
          let bad =
            if List.length r.op_digests <> List.length first.op_digests then r.ops
            else
              List.fold_left2
                (fun n a b -> if a = b then n else n + per)
                0 r.op_digests first.op_digests
          in
          let notes = if bad > 0 then [ "digest differs from the first round" ] else [] in
          (r, min r.ops (r.failed + bad), r.failures @ notes))
      rounds

(* ------------------------------------------------------------------ *)
(* Runs *)

(* [cpu] is the round's reference seconds; [scale] its reference seconds per
   processor second, i.e. the host's speed relative to the reference. *)
type timed = { round : round; wall : float; cpu : float; scale : float; words : float; peak : float }

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* [timer]: sample the host's speed inside the round too (see {!Calib}). *)
let timed ?(timer = false) f =
  Gc.compact ();
  Calib.sample ();
  let w0 = Gc.minor_words () and t0 = Spans.now () in
  let c0 = Calib.clock () and p0 = Calib.processor () in
  let round = if timer then Calib.timed f else f () in
  Calib.sample ();
  let wall = Spans.now () -. t0 and cpu = Calib.clock () -. c0 in
  let scale = ratio cpu (Calib.processor () -. p0) in
  { round; wall; cpu; scale; words = Gc.minor_words () -. w0; peak = peak_heap_mb () }

(* Repeat [f] while another iteration, as long as the last one, still
   ends before the deadline; always at least once. *)
let until_deadline ~seconds f =
  let deadline = Spans.now () +. seconds in
  let rec go acc =
    let t0 = Spans.now () in
    let acc = f () :: acc in
    let t1 = Spans.now () in
    if t1 +. (t1 -. t0) > deadline then List.rev acc else go acc
  in
  go []

type result = {
  workload : workload;
  seed : int64;
  traced : bool;
  rounds : int;
  attempted : int;
  failed : int;
  failures : string list;
  digest_check : string;
  metrics : (string * float) list;  (** in catalogue order *)
  notes : (string * string) list;  (** metric -> how it was measured *)
  layer_shares : (string * float) list;
  spans : Spans.t option;
}

let digest_note ~expected =
  match expected with
  | Some _ -> "first round checked against the recorded digest, every op against the first round"
  | None -> "no recorded digest for this seed; every op checked against the first round"

let tally ~expected rounds =
  let checked = check_rounds ~expected rounds in
  let attempted = List.fold_left (fun n (r, _, _) -> n + r.ops) 0 checked in
  let failed = List.fold_left (fun n (_, f, _) -> n + f) 0 checked in
  let failures = List.concat_map (fun (_, _, notes) -> notes) checked in
  (attempted, failed, List.sort_uniq compare failures)

(* The first round runs without the sampling timer: it gives the
   allocation count, which the timer's signals perturb by a few words, and
   warms the caches and the heap. The times come from the later rounds, or
   from the first when it is the only one. *)
let plain w ~seed ~seconds ~expected =
  let n = ref 0 in
  let runs =
    until_deadline ~seconds (fun () ->
        incr n;
        timed ~timer:(!n > 1) (fun () -> w.run seed))
  in
  let first, measured =
    match runs with
    | first :: (_ :: _ as rest) -> (first, rest)
    | first :: [] -> (first, [ first ])
    | [] -> invalid_arg "plain: no round"
  in
  let rounds = List.map (fun t -> t.round) runs in
  let attempted, failed, failures = tally ~expected rounds in
  let wall = List.fold_left (fun s t -> s +. t.wall) 0.0 runs in
  let cpu = List.fold_left (fun s t -> s +. t.cpu) 0.0 runs in
  let ops = List.fold_left (fun n r -> n + r.ops) 0 rounds in
  (* Read after the first round: the peak one round of the workload
     needs from a fresh process, which later rounds do not move. *)
  let peak = first.peak in
  (* Op and set-up times are processor seconds: scaled by their round's
     host speed, a mean over many samples, rather than by the one sample
     nearest to each. *)
  let scaled t l = List.map (fun v -> v *. t.scale) l in
  let setups = List.concat_map (fun t -> scaled t t.round.setups) measured in
  (* A failed op counts as missing every latency figure: infinitely slow. *)
  let times =
    let digests0 = first.round.op_digests in
    let recorded_ok = match expected with Some d -> first.round.digest = d | None -> true in
    List.concat_map
      (fun t ->
        let r = t.round in
        if List.length r.op_times <> List.length digests0 || r.op_digests = [] then
          scaled t r.op_times
        else
          List.map2
            (fun v (d, d0) -> if recorded_ok && d = d0 && Float.is_finite v then v else infinity)
            (scaled t r.op_times) (List.combine r.op_digests digests0))
      measured
  in
  let n_times = List.length times in
  let p50, tail_v, tail_note =
    if times = [] then
      (0.0, 0.0, "not timed one by one: one simulation serves every request")
    else
      ( median times *. 1e3,
        (match tail times with Some (_, v, _) -> v *. 1e3 | None -> 0.0),
        match tail times with
        | Some (p, _, beyond) -> Printf.sprintf "p%g of %d ops, %d beyond it" p n_times beyond
        | None -> Printf.sprintf "%d ops: no percentile has 10 samples beyond it" n_times )
  in
  {
    workload = w;
    seed;
    traced = false;
    rounds = List.length runs;
    attempted;
    failed;
    failures;
    digest_check = digest_note ~expected;
    metrics =
      [ ("ops_per_s", median (List.map (fun t -> ratio (float_of_int t.round.ops) t.cpu) measured));
        ("setup_s", median setups);
        ("alloc_mwords", first.words /. 1e6);
        ("peak_heap_mb", peak);
        ("op_p50_ms", p50);
        ("op_tail_ms", tail_v);
        ("error_rate", ratio (float_of_int failed) (float_of_int attempted)) ];
    notes =
      [ ( "ops_per_s",
          Printf.sprintf
            "median over %d rounds; %d ops (%s) in %.2f reference s, %.2f wall s; host speed \
             %.3f of the reference"
            (List.length measured) ops w.op cpu wall
            (median (List.map (fun t -> t.scale) measured)) );
        ( "setup_s",
          Printf.sprintf "median of %d simulations' set-up, before the first event"
            (List.length setups) );
        ("alloc_mwords", "minor words of the first round");
        ("peak_heap_mb", "Gc top_heap_words after the first round");
        ( "rounds_s",
          String.concat " " (List.map (fun t -> Printf.sprintf "%.3f/%.3f@%.3f" t.cpu t.wall t.scale) runs) );
        ("op_p50_ms", if times = [] then tail_note else Printf.sprintf "median of %d ops" n_times);
        ("op_tail_ms", tail_note);
        ("error_rate", Printf.sprintf "%d of %d ops failed" failed attempted) ];
    layer_shares = [];
    spans = None;
  }

let traced w ~seed ~seconds ~expected =
  let spans = Spans.create () in
  let cycles =
    until_deadline ~seconds (fun () ->
        let u = timed (fun () -> w.run seed) in
        let t = timed (fun () -> w.run ~tr:spans seed) in
        let removed = List.map (fun rm -> (rm, timed (fun () -> rm.without seed))) w.removals in
        (u, t, removed))
  in
  let us = List.map (fun (u, _, _) -> u) cycles and ts = List.map (fun (_, t, _) -> t) cycles in
  let removed = List.concat_map (fun (_, _, r) -> r) cycles in
  (* The full workload's rounds are checked like an untraced run's;
     removal rounds simulate something else, so only their own failures
     count. *)
  let attempted, failed, failures =
    tally ~expected (List.concat_map (fun (u, t, _) -> [ u.round; t.round ]) cycles)
  in
  let attempted = attempted + List.fold_left (fun n (_, r) -> n + r.round.ops) 0 removed in
  let failed = failed + List.fold_left (fun n (_, r) -> n + r.round.failed) 0 removed in
  let failures = failures @ List.concat_map (fun (_, r) -> r.round.failures) removed in
  let med f l = median (List.map f l) in
  let tv k = med (fun t -> value t.round k) ts in
  let events = tv "engine.events" and drain = tv "engine.drain_s" in
  let drain_u = med (fun u -> value u.round "engine.drain_s") us in
  let removal_metrics =
    List.concat_map
      (fun rm ->
        let runs = List.filter_map (fun (r, t) -> if r == rm then Some t else None) removed in
        (rm.layer_cost, drain_u -. med (fun v -> value v.round "engine.drain_s") runs)
        :: Option.to_list
             (Option.map
                (fun k -> (k, (med (fun u -> u.words) us -. med (fun v -> v.words) runs) /. 1e6))
                rm.layer_mwords))
      w.removals
  in
  let removal_cost =
    List.fold_left (fun s rm -> s +. List.assoc rm.layer_cost removal_metrics) 0.0 w.removals
  in
  let computed =
    [ ("engine.ns_per_event", ratio drain events *. 1e9);
      ("engine.words_per_event", ratio (tv "engine.drain_words") events);
      ( "controlplane.defer_ratio",
        ratio (tv "controlplane.requests.deferred") (tv "controlplane.requests.dispatched") );
      ( "controlplane.swap_yield",
        ratio (tv "controlplane.swap.applied") (tv "controlplane.swap.proposed") );
      ("trace.overhead_s", med (fun t -> t.wall) ts -. med (fun u -> u.wall) us) ]
    @ removal_metrics
  in
  let metrics =
    List.map
      (fun (mt : metric) ->
        (mt.name, match List.assoc_opt mt.name computed with Some v -> v | None -> tv mt.name))
      per_layer
  in
  let wall_t = List.fold_left (fun s t -> s +. t.wall) 0.0 ts in
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun ((s : Spans.span), self) ->
      let l = Spans.layer s.name in
      Hashtbl.replace by_layer l (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    (Spans.self_times spans);
  let spanned = Hashtbl.fold (fun _ v s -> s +. v) by_layer 0.0 in
  let layer_shares =
    (Hashtbl.fold (fun l v acc -> (l, ratio v wall_t) :: acc) by_layer []
    |> List.sort (fun (_, a) (_, b) -> compare b a))
    @ [ ("(outside spans)", ratio (wall_t -. spanned) wall_t) ]
  in
  let approx =
    List.filter_map (fun rm -> if rm.approximate then Some rm.layer_cost else None) w.removals
  in
  let ctl k = Printf.sprintf "base: %.0f %s" (tv ("controlplane." ^ k)) k in
  let wall_med = med (fun t -> t.wall) ts in
  let ops = med (fun t -> float_of_int t.round.ops) ts in
  {
    workload = w;
    seed;
    traced = true;
    rounds = List.length cycles;
    attempted;
    failed;
    failures;
    digest_check = digest_note ~expected;
    metrics;
    notes =
      List.map
        (fun rm ->
          ( rm.layer_cost,
            Printf.sprintf "%.0f%% of the untraced drain%s" (100.0 *. ratio (List.assoc rm.layer_cost removal_metrics) drain_u)
              (if List.mem rm.layer_cost approx then
                 "; approximate: removing the layer changes the request stream"
               else "") ))
        w.removals
      @ [ ("engine.events", Printf.sprintf "%.0f per op" (ratio events ops));
          ( "engine.drain_s",
            Printf.sprintf "%.0f%% of the traced round's host time" (100.0 *. ratio drain wall_med) );
          ( "trace.removals",
            Printf.sprintf "removal runs together cost %.0f%% of the untraced drain"
              (100.0 *. ratio removal_cost drain_u) );
          ("controlplane.defer_ratio", ctl "requests.dispatched");
          ("controlplane.swap_yield", ctl "swap.proposed");
          ("trace.overhead_s", "traced round wall minus untraced round wall, medians") ];
    layer_shares;
    spans = Some spans;
  }

let run w ~seed ~seconds ~trace ~expected =
  if trace then traced w ~seed ~seconds ~expected else plain w ~seed ~seconds ~expected

(* ------------------------------------------------------------------ *)
(* Output *)

let all_metrics = end_to_end @ reported @ per_layer

let unit_of name =
  match List.find_opt (fun (mt : metric) -> mt.name = name) all_metrics with
  | Some mt -> mt.unit
  | None -> ""

let pp_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print_human r =
  Printf.printf "== %s (seed %Ld, %s run, %d %s) ==\n" r.workload.name r.seed
    (if r.traced then "traced" else "untraced")
    r.rounds
    (if r.traced then "cycles" else "rounds");
  List.iter
    (fun (name, v) ->
      let note = Option.value ~default:"" (List.assoc_opt name r.notes) in
      let shown =
        if (name = "op_p50_ms" || name = "op_tail_ms") && v = 0.0 then "n/a" else pp_value v
      in
      Printf.printf "  %-34s %14s %-7s %s\n" name shown (unit_of name) note)
    r.metrics;
  if r.layer_shares <> [] then begin
    Printf.printf "  layer shares of the traced round (self time / wall):\n";
    List.iter (fun (l, s) -> Printf.printf "    %-16s %5.1f%%\n" l (100.0 *. s)) r.layer_shares
  end;
  Option.iter
    (fun sp ->
      Printf.printf "  spans (name, count, total s, self s):\n";
      List.iter
        (fun (name, (n, total, self)) ->
          Printf.printf "    %-26s %7d %10.4f %10.4f\n" name n total self)
        (Spans.summary sp))
    r.spans;
  Option.iter (Printf.printf "  rounds (reference s/wall s@host speed): %s\n") (List.assoc_opt "rounds_s" r.notes);
  if r.workload.removals <> [] then
    Option.iter (Printf.printf "  layer removal: %s\n") (List.assoc_opt "trace.removals" r.notes);
  Printf.printf "  correctness: %d of %d ops failed; %s\n" r.failed r.attempted r.digest_check;
  List.iteri (fun i f -> if i < 10 then Printf.printf "  FAILURE: %s\n" f) r.failures;
  flush stdout

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* [(key, metric name, value)] as a JSON object of {value, unit}. *)
let json_metrics entries =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (key, name, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" key (json_num v) (unit_of name))
         entries)
  ^ "}"

(* The result line: with tracing off the gated end-to-end metrics, with
   tracing on every per-layer metric. Several workloads prefix their keys
   with the workload name. *)
let result_line results =
  let gated r =
    let names = List.map (fun (mt : metric) -> mt.name) (if r.traced then per_layer else end_to_end) in
    List.filter (fun (k, _) -> List.mem k names) r.metrics
  in
  let pairs =
    List.concat_map
      (fun r ->
        let key k = match results with [ _ ] -> k | _ -> r.workload.name ^ "." ^ k in
        List.map (fun (k, v) -> (key k, k, v)) (gated r))
      results
  in
  let attempted = List.fold_left (fun n r -> n + r.attempted) 0 results in
  let failed = List.fold_left (fun n r -> n + r.failed) 0 results in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (failed = 0 && attempted > 0) attempted failed (json_metrics pairs)
