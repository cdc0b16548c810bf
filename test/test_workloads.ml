(* Tests for the workload models: memtest, bcast+reduce, NPB skeletons. *)

open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_guestos
open Ninja_mpi
open Ninja_workloads

let check_near msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g +/- %g, got %g" msg expected tolerance actual

let setup ?(n = 2) ?(ib = true) () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim ~spec:Spec.agc_ib16 () in
  let members =
    List.init n (fun i ->
        let host = Cluster.find_node cluster (Printf.sprintf "ib%02d" i) in
        let vm =
          Vm.create cluster ~name:(Printf.sprintf "vm%d" i) ~host ~vcpus:8
            ~mem_bytes:(Units.gb 20.0) ()
        in
        if ib then Vm.attach_device vm (Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca);
        (vm, Guest.boot vm))
  in
  (sim, cluster, members)

(* ------------------------------------------------------------------ *)
(* Memtest *)

let test_memtest_dirties_memory () =
  let sim, cluster, members = setup ~n:1 () in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        Memtest.run ctx ~array_bytes:(Units.gb 2.0) ~passes:2 ())
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  let vm, _ = List.hd members in
  (* OS image (~2.3 GB) + the 2 GiB array are resident. *)
  check_near "array resident" 1e8
    (2.3e9 +. Units.gb 2.0)
    (Memory.nonzero_bytes (Vm.memory vm));
  check_near "array re-dirtied by the last pass" 1e8 (Units.gb 2.0)
    (Memory.dirty_bytes (Vm.memory vm))

let test_memtest_pass_duration () =
  (* One pass of S bytes at W bytes/s takes S/W on an idle host. *)
  let sim, cluster, members = setup ~n:1 () in
  let t = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        Memtest.run ctx ~array_bytes:(Units.gb 3.0) ~passes:1 ~write_bandwidth:2.0e9 ();
        t := Mpi.wtime ctx)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  check_near "pass time" 0.01 (Units.gb 3.0 /. 2.0e9) !t

let test_memtest_run_until_stops () =
  let sim, cluster, members = setup ~n:2 () in
  let t = ref 0.0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        Memtest.run_until ctx ~array_bytes:(Units.gb 1.0) ~until:5.0 ();
        if Mpi.rank ctx = 0 then t := Mpi.wtime ctx)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check bool) "stops shortly after the deadline" true (!t >= 5.0 && !t < 6.5)

(* ------------------------------------------------------------------ *)
(* Bcast+reduce *)

let test_bcast_reduce_samples () =
  let sim, cluster, members = setup ~n:4 () in
  let samples = ref [] in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
        Bcast_reduce.run ctx ~data_per_node:1.0e9 ~procs_per_vm:1 ~steps:5
          ~on_step:(fun s -> samples := s :: !samples)
          ())
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  let samples = List.rev !samples in
  Alcotest.(check (list int)) "one sample per step" [ 1; 2; 3; 4; 5 ]
    (List.map (fun s -> s.Bcast_reduce.step) samples);
  List.iter
    (fun s -> Alcotest.(check bool) "positive elapsed" true (s.Bcast_reduce.elapsed > 0.0))
    samples;
  (* Steady state: all steps take the same time on a static cluster. *)
  let es = List.map (fun s -> s.Bcast_reduce.elapsed) samples in
  check_near "constant step time" 0.02 (Ninja_metrics.Stats.minimum es)
    (Ninja_metrics.Stats.maximum es)

let test_bcast_reduce_scales_with_interconnect () =
  let run ib =
    let sim, cluster, members = setup ~n:2 ~ib () in
    let elapsed = ref 0.0 in
    let job =
      Runtime.mpirun cluster ~members ~procs_per_vm:1 (fun ctx ->
          Bcast_reduce.run ctx ~data_per_node:2.0e9 ~procs_per_vm:1 ~steps:2
            ~on_step:(fun s -> elapsed := s.Bcast_reduce.elapsed)
            ())
    in
    Sim.spawn sim (fun () -> Runtime.wait job);
    Sim.run sim;
    !elapsed
  in
  let ib = run true and tcp = run false in
  (* QDR vs virtio: roughly the bandwidth ratio. *)
  Alcotest.(check bool) "IB much faster" true (tcp /. ib > 2.0)

(* ------------------------------------------------------------------ *)
(* NPB *)

let test_npb_kernel_names () =
  Alcotest.(check (list string)) "names" [ "BT"; "CG"; "FT"; "LU" ]
    (List.map Npb.kernel_name Npb.all)

let test_npb_footprints_span_paper_range () =
  (* Per-VM application footprints + 2.3 GB OS must span ~2.3-16 GB. *)
  let fp k = (Npb.footprint_per_vm k Npb.D ~procs_per_vm:8 +. 2.3e9) /. 1e9 in
  Alcotest.(check bool) "CG smallest ~2-5 GB" true (fp Npb.CG > 2.3 && fp Npb.CG < 5.0);
  Alcotest.(check bool) "FT largest ~16 GB" true (fp Npb.FT > 14.0 && fp Npb.FT <= 17.0);
  List.iter
    (fun k -> Alcotest.(check bool) "within VM memory" true (fp k < 20.0))
    Npb.all

let test_npb_class_c_runs_to_nominal_time () =
  (* CG class C on 2 VMs x 2 ranks: compute-dominated, so the wall time
     should sit near iterations x compute. *)
  let sim, cluster, members = setup ~n:2 () in
  let t = ref 0.0 in
  let iter_count = ref 0 in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx ->
        Npb.run ctx Npb.CG Npb.C ~on_iteration:(fun _ _ -> incr iter_count) ();
        if Mpi.rank ctx = 0 then t := Mpi.wtime ctx)
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  Alcotest.(check int) "iteration callbacks" (Npb.iterations Npb.CG Npb.C) !iter_count;
  let expected = float_of_int (Npb.iterations Npb.CG Npb.C) *. 7.6 /. 4.0 in
  check_near "near nominal" (expected *. 0.1) expected !t

let test_npb_allocates_working_set () =
  let sim, cluster, members = setup ~n:1 () in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx -> Npb.run ctx Npb.LU Npb.C ())
  in
  Sim.spawn sim (fun () -> Runtime.wait job);
  Sim.run sim;
  let vm, _ = List.hd members in
  let expected = 2.3e9 +. Npb.footprint_per_vm Npb.LU Npb.C ~procs_per_vm:2 in
  check_near "working set resident" 2e8 expected (Memory.nonzero_bytes (Vm.memory vm))

let test_npb_baseline_ordering () =
  (* Class D analytic baselines keep the paper's ordering:
     BT > CG > LU > FT. *)
  let b k = Npb.nominal_baseline k Npb.D in
  Alcotest.(check bool) "BT slowest" true (b Npb.BT > b Npb.CG);
  Alcotest.(check bool) "CG > LU" true (b Npb.CG > b Npb.LU);
  Alcotest.(check bool) "LU > FT" true (b Npb.LU > b Npb.FT)

let test_npb_survives_migration () =
  (* An NPB run keeps iterating across a mid-run checkpoint. *)
  let sim, cluster, members = setup ~n:2 () in
  let job =
    Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx -> Npb.run ctx Npb.LU Npb.C ())
  in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 20);
      Runtime.await_checkpoint_complete (Runtime.request_checkpoint job);
      Runtime.wait job);
  Sim.run sim;
  Alcotest.(check bool) "finished" true (Runtime.is_finished job)

(* ------------------------------------------------------------------ *)
(* Traffic matrices *)

let test_traffic_grammar_roundtrip () =
  let patterns =
    [
      Traffic.Uniform { rate = Traffic.default_rate };
      Traffic.Ring { rate = 0.0 };
      Traffic.Skewed { elephants = 3; rate = 1.5e5; factor = 16.0 };
      (* An awkward float must survive the text form exactly. *)
      Traffic.Uniform { rate = 1.0 /. 3.0 };
    ]
  in
  List.iter
    (fun p ->
      match Traffic.of_string (Traffic.to_string p) with
      | Ok p' ->
        if p' <> p then
          Alcotest.failf "%s did not round-trip" (Traffic.to_string p)
      | Error e -> Alcotest.failf "%s: %s" (Traffic.to_string p) e)
    patterns;
  (* Defaults: a bare pattern name parses with the default rate. *)
  (match Traffic.of_string "uniform" with
  | Ok (Traffic.Uniform { rate }) ->
    check_near "default rate" 1.0 Traffic.default_rate rate
  | Ok p -> Alcotest.failf "expected uniform, got %s" (Traffic.to_string p)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun text ->
      match Traffic.of_string text with
      | Ok _ -> Alcotest.failf "expected %S rejected" text
      | Error _ -> ())
    [
      "spiral"; "uniform:rate=-1"; "uniform:rate=nan"; "ring:elephants=2";
      "skewed:factor=0.5"; "skewed:elephants=banana"; "uniform:rate";
    ]

let test_traffic_matrix_shapes () =
  let prng = Prng.create ~seed:3L in
  let vms = [ "a"; "b"; "c"; "d" ] in
  let uni = Traffic.matrix prng (Traffic.Uniform { rate = 2.0 }) ~vms in
  Alcotest.(check int) "uniform: all unordered pairs" 6 (List.length uni);
  List.iter
    (fun (a, b, rate) ->
      Alcotest.(check bool) "endpoints canonically ordered" true (a < b);
      check_near "uniform rate" 1e-9 2.0 rate)
    uni;
  let ring = Traffic.matrix prng (Traffic.Ring { rate = 1.0 }) ~vms in
  Alcotest.(check int) "ring: one entry per VM" 4 (List.length ring);
  let skew =
    Traffic.matrix prng
      (Traffic.Skewed { elephants = 2; rate = 1.0; factor = 10.0 })
      ~vms
  in
  let heavy = List.filter (fun (_, _, r) -> r >= 9.0) skew in
  Alcotest.(check int) "skewed: requested elephant count" 2 (List.length heavy);
  Alcotest.(check bool) "skewed: mice keep the base rate" true
    (List.exists (fun (_, _, r) -> r < 9.0) skew);
  (* Degenerate populations produce no demand rather than self-loops. *)
  Alcotest.(check int) "one VM: empty" 0
    (List.length (Traffic.matrix prng (Traffic.Uniform { rate = 1.0 }) ~vms:[ "solo" ]));
  Alcotest.check_raises "invalid pattern refused"
    (Invalid_argument "Traffic.matrix: rate must be non-negative and finite")
    (fun () ->
      ignore (Traffic.matrix prng (Traffic.Uniform { rate = -1.0 }) ~vms))

let test_traffic_matrix_deterministic () =
  let draw seed =
    let prng = Prng.create ~seed in
    let pattern = Traffic.gen prng in
    (pattern, Traffic.matrix prng pattern ~vms:[ "a"; "b"; "c"; "d"; "e" ])
  in
  Alcotest.(check bool) "same seed, same pattern and matrix" true
    (draw 11L = draw 11L);
  Alcotest.(check bool) "seeds decorrelate" true (draw 11L <> draw 12L);
  (* Generated patterns always validate — the fuzzer relies on it. *)
  let prng = Prng.create ~seed:99L in
  for _ = 1 to 200 do
    match Traffic.validate (Traffic.gen prng) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "generated pattern invalid: %s" e
  done

(* [Traffic.of_observations] as it was first written, kept as the
   reference: a hash table of canonical pairs summing the counts, then a
   polymorphic sort of the (a, b, rate) triples. *)
let reference_observations ?(sample_rate = 16) ?(pkt_bytes = 1500.0) ~window obs =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (a, b, n) ->
      let key = if String.compare a b <= 0 then (a, b) else (b, a) in
      Hashtbl.replace counts key (n + Option.value (Hashtbl.find_opt counts key) ~default:0))
    obs;
  let scale = float_of_int sample_rate *. pkt_bytes /. window in
  Hashtbl.fold
    (fun (a, b) n acc ->
      let rate = float_of_int n *. scale in
      if rate > 0.0 then (a, b, rate) :: acc else acc)
    counts []
  |> List.sort compare

(* Observations over a few names, so pairs repeat in both orientations
   (self-pairs too), with zero and negative counts among them. *)
let observations_prop =
  let names = [| "a"; "b"; "vm1"; "vm10"; "vm2"; "" |] in
  let obs =
    QCheck.(
      list_of_size Gen.(0 -- 40)
        (triple (int_bound (Array.length names - 1)) (int_bound (Array.length names - 1))
           (int_range (-5) 50)))
  in
  QCheck.Test.make ~name:"of_observations matches the hash-table reference" ~count:500
    QCheck.(pair obs (pair (int_range 1 64) (float_range 0.5 3600.0)))
    (fun (obs, (sample_rate, window)) ->
      let obs = List.map (fun (a, b, n) -> (names.(a), names.(b), n)) obs in
      let got = Ninja_workloads.Traffic.of_observations ~sample_rate ~window obs in
      let want = reference_observations ~sample_rate ~window obs in
      List.equal
        (fun (a, b, r) (a', b', r') ->
          String.equal a a' && String.equal b b'
          && Int64.equal (Int64.bits_of_float r) (Int64.bits_of_float r'))
        got want)

let () =
  Alcotest.run "ninja_workloads"
    [
      ( "memtest",
        [
          Alcotest.test_case "dirties memory" `Quick test_memtest_dirties_memory;
          Alcotest.test_case "pass duration" `Quick test_memtest_pass_duration;
          Alcotest.test_case "run_until" `Quick test_memtest_run_until_stops;
        ] );
      ( "bcast_reduce",
        [
          Alcotest.test_case "samples" `Quick test_bcast_reduce_samples;
          Alcotest.test_case "interconnect sensitivity" `Quick
            test_bcast_reduce_scales_with_interconnect;
        ] );
      ( "npb",
        [
          Alcotest.test_case "kernel names" `Quick test_npb_kernel_names;
          Alcotest.test_case "footprint range" `Quick test_npb_footprints_span_paper_range;
          Alcotest.test_case "class C nominal time" `Quick test_npb_class_c_runs_to_nominal_time;
          Alcotest.test_case "working set" `Quick test_npb_allocates_working_set;
          Alcotest.test_case "baseline ordering" `Quick test_npb_baseline_ordering;
          Alcotest.test_case "survives migration" `Quick test_npb_survives_migration;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "grammar round-trips" `Quick test_traffic_grammar_roundtrip;
          Alcotest.test_case "matrix shapes" `Quick test_traffic_matrix_shapes;
          Alcotest.test_case "matrix deterministic" `Quick
            test_traffic_matrix_deterministic;
        ]
        @ Qsuite.tests [ observations_prop ] );
    ]
