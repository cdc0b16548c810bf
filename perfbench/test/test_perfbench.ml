(* The benchmark's own tests: a round repeats exactly at one seed (event
   and probe counts, allocation, digests), tracing does not perturb it, a
   different seed changes the generated inputs, and the correctness and
   percentile rules count what they claim to. *)

open Perfbench

let value = Harness.value

(* Each workload's seed-1 round, run twice untraced and once traced; the
   job is shortened for mpi-consolidation, the scenario list for
   fuzz-campaign and the round to one simulation for dc-serve, to keep the
   suite fast. *)
let twice run = (lazy (Harness.timed (fun () -> run None 1L)), lazy (Harness.timed (fun () -> run None 1L)))

let mpi tr seed = Workloads.mpi_consolidation ?tr ~steps:10 seed

let fuzz tr seed = Workloads.fuzz_campaign ?tr ~n:30 seed

let serve tr seed = Workloads.dc_serve ?tr ~sims:1 seed

let mpi_runs = twice mpi

let fuzz_runs = twice fuzz

let serve_runs = twice serve

let same_seed_same_round (a, b) () =
  let a = Lazy.force a and b = Lazy.force b in
  Alcotest.(check int) "no failures" 0 (a.Harness.round.failed + b.Harness.round.failed);
  Alcotest.(check string) "digest" a.round.digest b.round.digest;
  Alcotest.(check (list string)) "op digests" a.round.op_digests b.round.op_digests;
  List.iter
    (fun k -> Alcotest.(check (float 0.0)) k (value a.round k) (value b.round k))
    [ "engine.events"; "probe.events"; "hardware.links" ];
  Alcotest.(check (float 0.0)) "alloc words" a.words b.words

let tracing_does_not_perturb run (plain, _) () =
  let plain = (Lazy.force plain).Harness.round and traced = run (Some (Spans.create ())) 1L in
  Alcotest.(check string) "digest" plain.Workloads.digest traced.Workloads.digest;
  Alcotest.(check (float 0.0)) "engine.events" (value plain "engine.events")
    (value traced "engine.events");
  Alcotest.(check bool) "topics counted" true
    (List.exists (fun (k, v) -> String.starts_with ~prefix:"probe.events." k && v > 0.0) traced.vals)

(* The calibration timer interrupts the simulation; its results and event
   counts must not change. *)
let timer_does_not_perturb run (plain, _) () =
  let plain = (Lazy.force plain).Harness.round in
  let sampled = (Harness.timed ~timer:true (fun () -> run None 1L)).round in
  Alcotest.(check string) "digest" plain.Workloads.digest sampled.Workloads.digest;
  Alcotest.(check (float 0.0)) "engine.events" (value plain "engine.events")
    (value sampled "engine.events")

let seed_changes_inputs () =
  let text seed =
    List.map Ninja_check.Scenario.to_string (Ninja_check.Fuzz.generate ~seed ~n:10)
  in
  let digest (runs, _) = (Lazy.force runs).Harness.round.digest in
  Alcotest.(check bool) "fuzz scenarios differ" true (text 1L <> text 2L);
  Alcotest.(check bool) "fuzz results differ" true (digest fuzz_runs <> (fuzz None 2L).digest);
  Alcotest.(check bool) "serve topology differs" true
    (Workloads.serve_topology 1L <> Workloads.serve_topology 2L);
  Alcotest.(check bool) "serve results differ" true (digest serve_runs <> (serve None 2L).digest)

(* fuzz-campaign times set-up with a zero-delay marker event; it must not
   change any scenario's outcome, end time or checked event count. *)
let marker_does_not_perturb () =
  let scenarios = Ninja_check.Fuzz.generate ~seed:1L ~n:10 in
  let expected =
    List.map
      (fun sc ->
        let r = Ninja_check.Runner.run sc in
        Workloads.hex (Workloads.scenario_results r))
      scenarios
  in
  let round = Workloads.fuzz_campaign ~n:10 1L in
  Alcotest.(check (list string)) "op digests" expected round.op_digests;
  Alcotest.(check (float 0.0)) "checked events"
    (float_of_int
       (List.fold_left (fun n sc -> n + (Ninja_check.Runner.run sc).events) 0 scenarios))
    (value round "check.events_seen")

let round ?(failed = 0) ~ops digests =
  { Workloads.ops; failed; failures = []; op_times = []; setups = []; op_digests = digests;
    digest = String.concat "" digests; vals = [] }

let digest_mismatch_fails_ops () =
  let first = round ~ops:3 [ "a"; "b"; "c" ] in
  let tally expected rounds =
    let _, failed, _ = Harness.tally ~expected rounds in
    failed
  in
  Alcotest.(check int) "identical rounds" 0 (tally None [ first; first ]);
  Alcotest.(check int) "one op differs" 1 (tally None [ first; round ~ops:3 [ "a"; "x"; "c" ] ]);
  Alcotest.(check int) "recorded digest differs" 6 (tally (Some "other") [ first; first ]);
  Alcotest.(check int) "recorded digest matches" 0 (tally (Some "abc") [ first ]);
  (* One digest for many ops (dc-serve): a mismatch fails them all. *)
  let serve d = round ~ops:400 [ d ] in
  Alcotest.(check int) "whole round" 400 (tally None [ serve "a"; serve "b" ]);
  Alcotest.(check int) "own failures" 2 (tally None [ round ~failed:2 ~ops:3 [ "a"; "b"; "c" ] ])

let tail_percentile () =
  let samples n = List.init n float_of_int in
  let p n = Option.map (fun (p, _, beyond) -> (p, beyond)) (Harness.tail (samples n)) in
  Alcotest.(check (option (pair (float 0.0) int))) "too few" None (p 15);
  Alcotest.(check (option (pair (float 0.0) int))) "20 samples" (Some (50.0, 10)) (p 20);
  Alcotest.(check (option (pair (float 0.0) int))) "400 samples" (Some (95.0, 20)) (p 400);
  Alcotest.(check (option (pair (float 0.0) int))) "1000 samples" (Some (99.0, 10)) (p 1000)

(* A sample's own kernel run stays off the calibrated clock, and between
   samples the clock advances at the sampled scale. *)
let calibration_clock () =
  Calib.sample ();
  let before = Calib.clock () and p0 = Calib.processor () in
  Calib.sample ();
  Alcotest.(check bool) "kernel left out" true
    (Calib.clock () -. before < Calib.reference /. 2.0
    && Calib.processor () -. p0 < Calib.reference /. 2.0);
  let r0 = Calib.clock () and p0 = Calib.processor () in
  while Calib.processor () -. p0 < 0.05 do
    ignore (Sys.opaque_identity (List.init 100 Fun.id))
  done;
  let scale = (Calib.clock () -. r0) /. (Calib.processor () -. p0) in
  Calib.sample ();
  Alcotest.(check bool) "advances at the scale" true (scale > 0.0 && Float.is_finite scale)

let () =
  Alcotest.run "perfbench"
    [ ( "determinism",
        [ Alcotest.test_case "mpi-consolidation repeats at one seed" `Quick
            (same_seed_same_round mpi_runs);
          Alcotest.test_case "fuzz-campaign repeats at one seed" `Quick
            (same_seed_same_round fuzz_runs);
          Alcotest.test_case "dc-serve repeats at one seed" `Slow (same_seed_same_round serve_runs);
          Alcotest.test_case "tracing does not perturb mpi-consolidation" `Quick
            (tracing_does_not_perturb mpi mpi_runs);
          Alcotest.test_case "tracing does not perturb fuzz-campaign" `Quick
            (tracing_does_not_perturb fuzz fuzz_runs);
          Alcotest.test_case "the sampling timer does not perturb mpi-consolidation" `Quick
            (timer_does_not_perturb mpi mpi_runs);
          Alcotest.test_case "the set-up marker does not perturb scenarios" `Quick
            marker_does_not_perturb;
          Alcotest.test_case "a different seed changes the inputs" `Slow seed_changes_inputs ] );
      ( "harness",
        [ Alcotest.test_case "digest mismatches fail ops" `Quick digest_mismatch_fails_ops;
          Alcotest.test_case "tail percentile keeps 10 samples beyond" `Quick tail_percentile;
          Alcotest.test_case "the calibrated clock leaves out the kernel" `Quick calibration_clock
        ] ) ]
