(* Tests for the experiment harness: every reproduced table/figure runs in
   quick mode, produces well-formed tables, and matches the paper's shape
   claims (who wins, what is constant, what scales). All runs go through
   an explicit Run_ctx; the registry tests pin the determinism guarantee
   the parallel sweep runner relies on. *)

open Ninja_engine
open Ninja_experiments

(* A fresh default context per use keeps tests independent. *)
let rc = Run_ctx.default

let cell table r c = List.nth (List.nth (Ninja_metrics.Table.rows table) r) c

let float_cell table r c =
  (* Cells may look like "3.92" or "29.5 (53.7)". *)
  Scanf.sscanf (cell table r c) "%f" Fun.id

let test_registry_complete () =
  Alcotest.(check (list string)) "all experiments present"
    [
      "table1"; "table2"; "fig6"; "fig7"; "fig8";
      "ablation-bypass"; "ablation-rdma"; "ablation-quiesce"; "ablation-postcopy";
      "postcopy"; "evacuation"; "scalability"; "controlplane"; "placement"; "power";
    ]
    Registry.names;
  Alcotest.(check bool) "find" true (Registry.find "fig6" <> None);
  Alcotest.(check bool) "find missing" true (Registry.find "fig9" = None)

let test_table1_static () =
  match Exp_table1.run () with
  | [ spec; model ] ->
    Alcotest.(check int) "9 spec rows" 9 (List.length (Ninja_metrics.Table.rows spec));
    Alcotest.(check bool) "model rows present" true
      (List.length (Ninja_metrics.Table.rows model) >= 8)
  | _ -> Alcotest.fail "expected two tables"

let test_table2_matches_paper () =
  match Exp_table2.run rc with
  | [ table ] ->
    let rows = Ninja_metrics.Table.rows table in
    Alcotest.(check int) "four combos" 4 (List.length rows);
    List.iteri
      (fun i combo ->
        let paper_h = Paper_data.table2_hotplug combo in
        let ours_h = float_cell table i 2 in
        let paper_l = Paper_data.table2_linkup combo in
        let ours_l = float_cell table i 4 in
        if Float.abs (paper_h -. ours_h) > 0.15 then
          Alcotest.failf "%s hotplug: paper %.2f vs ours %.2f" (Paper_data.combo_name combo)
            paper_h ours_h;
        if Float.abs (paper_l -. ours_l) > 0.5 then
          Alcotest.failf "%s linkup: paper %.2f vs ours %.2f" (Paper_data.combo_name combo)
            paper_l ours_l)
      Paper_data.combos
  | _ -> Alcotest.fail "expected one table"

let test_fig6_shape () =
  let r2 = Exp_fig6.measure rc ~size_gb:2.0 in
  let r16 = Exp_fig6.measure rc ~size_gb:16.0 in
  (* Migration depends on the footprint... *)
  Alcotest.(check bool) "migration grows with footprint" true
    (r16.Exp_fig6.migration > r2.Exp_fig6.migration);
  (* ...but not proportionally (constant traversal + zero-page scan). *)
  Alcotest.(check bool) "sub-proportional" true
    (r16.Exp_fig6.migration /. r2.Exp_fig6.migration < 8.0 /. 2.0);
  (* Hotplug and link-up are size-independent. *)
  Alcotest.(check bool) "hotplug constant" true
    (Float.abs (r16.Exp_fig6.hotplug -. r2.Exp_fig6.hotplug) < 0.5);
  Alcotest.(check bool) "linkup constant ~30s" true
    (Float.abs (r16.Exp_fig6.linkup -. 29.9) < 1.0
    && Float.abs (r2.Exp_fig6.linkup -. 29.9) < 1.0);
  (* Hotplug is ~3x the Table II self-migration value (migration noise). *)
  Alcotest.(check bool) "migration noise ~3x" true
    (r2.Exp_fig6.hotplug > 2.5 *. 3.88 && r2.Exp_fig6.hotplug < 4.0 *. 3.88)

let test_fig7_claims () =
  (* Quick mode: class C at 4 ranks; the structural claims must hold. *)
  let rows = List.map (Exp_fig7.measure rc) Ninja_workloads.Npb.all in
  List.iter
    (fun r ->
      (* Proposed = baseline + overhead; overhead within sane bounds. *)
      let overhead = r.Exp_fig7.proposed -. r.Exp_fig7.baseline in
      if overhead < 30.0 || overhead > 120.0 then
        Alcotest.failf "%s: odd overhead %.1f" r.Exp_fig7.kernel overhead;
      Alcotest.(check bool) "linkup constant" true (Float.abs (r.Exp_fig7.linkup -. 29.9) < 1.0))
    rows;
  (* Migration time tracks the per-VM footprint: FT > BT > LU > CG. *)
  let m k = (List.find (fun r -> r.Exp_fig7.kernel = k) rows).Exp_fig7.migration in
  Alcotest.(check bool) "FT largest" true (m "FT" > m "BT" && m "BT" > m "LU" && m "LU" > m "CG")

let test_fig8_phases () =
  let rows = Exp_fig8.measure rc ~procs_per_vm:1 in
  Alcotest.(check int) "40 steps" 40 (List.length rows);
  let mean phase exclude =
    let xs =
      rows
      |> List.filter (fun r -> r.Exp_fig8.phase = phase && not (List.mem r.Exp_fig8.step exclude))
      |> List.map (fun r -> r.Exp_fig8.elapsed)
    in
    Ninja_metrics.Stats.mean xs
  in
  let ib = mean "4 hosts (IB)" [ 21 ] in
  let tcp2 = mean "2 hosts (TCP)" [ 11 ] in
  let tcp4 = mean "4 hosts (TCP)" [ 31 ] in
  (* Interconnect ordering: IB fastest; consolidated TCP slowest. *)
  Alcotest.(check bool) "IB fastest" true (ib < tcp4);
  Alcotest.(check bool) "consolidation costs" true (tcp2 > tcp4);
  (* Migration steps carry visible overhead. *)
  List.iter
    (fun step ->
      let r = List.find (fun r -> r.Exp_fig8.step = step) rows in
      Alcotest.(check bool) "overhead recorded" true (r.Exp_fig8.overhead > 5.0);
      Alcotest.(check bool) "spike visible" true (r.Exp_fig8.elapsed > 2.0 *. ib))
    [ 11; 21; 31 ]

let test_fig8_more_procs_faster_on_ib () =
  (* Paper: 8 procs/VM beats 1 proc/VM except under consolidation. *)
  let r1 = Exp_fig8.measure rc ~procs_per_vm:1 in
  let r8 = Exp_fig8.measure rc ~procs_per_vm:8 in
  let mean rows phase exclude =
    rows
    |> List.filter (fun r -> r.Exp_fig8.phase = phase && not (List.mem r.Exp_fig8.step exclude))
    |> List.map (fun r -> r.Exp_fig8.elapsed)
    |> Ninja_metrics.Stats.mean
  in
  Alcotest.(check bool) "8 procs faster on IB" true
    (mean r8 "4 hosts (IB)" [ 21 ] < mean r1 "4 hosts (IB)" [ 21 ]);
  (* The consolidated phase pays CPU over-commit relative to spread TCP. *)
  Alcotest.(check bool) "8b consolidation contention" true
    (mean r8 "2 hosts (TCP)" [ 11 ] > 1.5 *. mean r8 "4 hosts (TCP)" [ 31 ])

let test_ablation_bypass_ordering () =
  match Exp_ablation.bypass rc with
  | [ table ] ->
    let tp r = float_cell table r 1 in
    let ft r = float_cell table r 3 in
    Alcotest.(check bool) "throughput: ib > virtio > emulated" true
      (tp 0 > tp 1 && tp 1 > tp 2);
    Alcotest.(check bool) "FT time: ib < virtio < emulated" true (ft 0 < ft 1 && ft 1 < ft 2)
  | _ -> Alcotest.fail "expected one table"

let test_ablation_rdma_speedup () =
  match Exp_ablation.rdma_migration rc with
  | [ table ] ->
    let speedup = float_cell table 0 3 in
    Alcotest.(check bool) "rdma sender 2-3x" true (speedup > 1.5 && speedup < 4.0)
  | _ -> Alcotest.fail "expected one table"

let test_ablation_postcopy_tradeoff () =
  match Exp_ablation.postcopy rc with
  | [ table ] ->
    let pre_bytes = float_cell table 0 3 and post_bytes = float_cell table 1 3 in
    let pre_dur = float_cell table 0 1 and post_dur = float_cell table 1 1 in
    let pre_work = float_cell table 0 4 and post_work = float_cell table 1 4 in
    Alcotest.(check bool) "postcopy sends each page once" true (post_bytes < 0.5 *. pre_bytes);
    Alcotest.(check bool) "postcopy migration shorter" true (post_dur < pre_dur);
    Alcotest.(check bool) "but the guest pays fault slowdown" true (post_work > pre_work)
  | _ -> Alcotest.fail "expected one table"

let test_postcopy_experiment_claims () =
  (* The acceptance scenario for the postcopy experiment: on every
     topology — including the oversubscribed leaf-spine where precopy
     burns its round budget against the dirtying guest — postcopy's
     downtime (the constant hot-set push) is strictly below precopy's
     residual stop-and-copy, and the drain actually happened as pulls. *)
  match Exp_postcopy.run rc with
  | [ table ] ->
    let rows = Ninja_metrics.Table.rows table in
    Alcotest.(check int) "quick entries" 2 (List.length rows);
    List.iteri
      (fun i _ ->
        let pre = float_cell table i 1 and post = float_cell table i 2 in
        Alcotest.(check bool)
          (Printf.sprintf "row %d: postcopy downtime strictly below precopy" i)
          true (post < pre);
        Alcotest.(check bool)
          (Printf.sprintf "row %d: drain ran as pulls" i)
          true
          (float_cell table i 6 > 0.0))
      rows
  | _ -> Alcotest.fail "expected one table"

let test_evacuation_grouped_beats_sequential () =
  (* The acceptance scenario: multi-VM evacuation over one shared uplink.
     Grouped waves must finish strictly sooner than the serial chain, with
     the same number of steps and no extra downtime blowup. *)
  let seq = Exp_evacuation.measure rc ~n_vms:4 ~strategy:Ninja_planner.Solver.Sequential () in
  let grp = Exp_evacuation.measure rc ~n_vms:4 ~strategy:Ninja_planner.Solver.Grouped () in
  Alcotest.(check int) "same steps" seq.Exp_evacuation.steps grp.Exp_evacuation.steps;
  Alcotest.(check int) "one step per VM" 4 grp.Exp_evacuation.steps;
  Alcotest.(check bool) "grouped strictly faster" true
    (grp.Exp_evacuation.makespan < seq.Exp_evacuation.makespan);
  (* The 10 Gb/s uplink fits two sender-bound streams: the grouped plan
     should roughly halve the serial makespan, not just shave it. *)
  Alcotest.(check bool) "grouped ~2x faster" true
    (grp.Exp_evacuation.makespan < 0.7 *. seq.Exp_evacuation.makespan);
  Alcotest.(check bool) "total includes makespan" true
    (grp.Exp_evacuation.total >= grp.Exp_evacuation.makespan)

let test_placement_swap_converges () =
  (* The PR-8 acceptance scenario: under a skewed (elephant-flow) traffic
     matrix the destination-swap strategy must land on a strictly cheaper
     communication placement than the migration-time baseline, which
     carries the same churn but never re-aims a destination. *)
  let pattern =
    Ninja_workloads.Traffic.Skewed
      { elephants = 2; rate = Ninja_workloads.Traffic.default_rate; factor = 16.0 }
  in
  let measure strategy =
    Exp_placement.measure rc ~pattern ~strategy ~vms_per_tenant:3 ~hosts_per_rack:4 ()
  in
  let base = measure Ninja_planner.Solver.Grouped in
  let swap = measure Ninja_planner.Solver.Swap in
  Alcotest.(check bool) "identical starting placement" true
    (base.Exp_placement.cost_start = swap.Exp_placement.cost_start);
  Alcotest.(check bool) "baseline proposes no swaps" true
    (base.Exp_placement.proposed = 0);
  Alcotest.(check bool) "swap strategy applies swaps" true
    (swap.Exp_placement.applied > 0);
  Alcotest.(check bool)
    (Printf.sprintf "swap converges lower (%.4f < %.4f)"
       swap.Exp_placement.cost_end base.Exp_placement.cost_end)
    true
    (swap.Exp_placement.cost_end < base.Exp_placement.cost_end);
  Alcotest.(check bool) "swap improves on its own start" true
    (swap.Exp_placement.cost_end < swap.Exp_placement.cost_start)

let test_placement_learned_matches_declared () =
  (* The learned pricing mode runs the same swap policy against a traffic
     matrix reconstructed from sampled flow telemetry instead of the
     declared one. The estimate converges to within a few percent, so the
     final communication cost must land within 5% of the declared-pricing
     baseline — the acceptance bound for closing the observe-plan loop. *)
  let pattern =
    Ninja_workloads.Traffic.Skewed
      { elephants = 2; rate = Ninja_workloads.Traffic.default_rate; factor = 16.0 }
  in
  let measure pricing =
    Exp_placement.measure rc ~pattern ~strategy:Ninja_planner.Solver.Swap
      ~swap_pricing:pricing ~vms_per_tenant:3 ~hosts_per_rack:4 ()
  in
  let declared = measure Ninja_controlplane.Service.Declared in
  let learned = measure Ninja_controlplane.Service.Learned in
  Alcotest.(check bool) "identical starting placement" true
    (declared.Exp_placement.cost_start = learned.Exp_placement.cost_start);
  Alcotest.(check bool) "learned pricing still applies swaps" true
    (learned.Exp_placement.applied > 0);
  Alcotest.(check bool) "learned pricing still converges" true
    (learned.Exp_placement.cost_end < learned.Exp_placement.cost_start);
  let rel =
    Float.abs (learned.Exp_placement.cost_end -. declared.Exp_placement.cost_end)
    /. declared.Exp_placement.cost_end
  in
  if rel > 0.05 then
    Alcotest.failf "learned cost %.4f vs declared %.4f: %.1f%% apart"
      learned.Exp_placement.cost_end declared.Exp_placement.cost_end (rel *. 100.0)

let test_scalability_congestion () =
  (* Below the uplink's capacity migrations run at the sender rate; well
     above it they stretch while hotplug stays constant. *)
  let r1 = Exp_scalability.measure rc ~n_vms:1 ~uplink_gbps:10.0 in
  let r8 = Exp_scalability.measure rc ~n_vms:8 ~uplink_gbps:10.0 in
  Alcotest.(check bool) "8 VMs congested" true
    (r8.Exp_scalability.migration > 1.3 *. r1.Exp_scalability.migration);
  Alcotest.(check bool) "per-VM rate drops" true
    (r8.Exp_scalability.per_vm_rate < r1.Exp_scalability.per_vm_rate);
  Alcotest.(check (float 0.2)) "hotplug unaffected" r1.Exp_scalability.hotplug
    r8.Exp_scalability.hotplug

let test_power_consolidation () =
  (* Consolidation saves energy for the under-utilised job and costs
     energy for the CPU-bound one (you cannot power-save a busy host). *)
  (* Full mode: the iteration counts the claims were calibrated against. *)
  let rc = Run_ctx.full in
  let spread_idle = Exp_power.measure rc ~consolidated:false ~busy:false in
  let cons_idle = Exp_power.measure rc ~consolidated:true ~busy:false in
  let spread_busy = Exp_power.measure rc ~consolidated:false ~busy:true in
  let cons_busy = Exp_power.measure rc ~consolidated:true ~busy:true in
  Alcotest.(check bool) "under-utilised: consolidation saves energy" true
    (cons_idle.Exp_power.energy_kj < spread_idle.Exp_power.energy_kj);
  Alcotest.(check bool) "CPU-bound: consolidation wastes energy" true
    (cons_busy.Exp_power.energy_kj > spread_busy.Exp_power.energy_kj);
  Alcotest.(check bool) "CPU-bound: consolidation ~2x slower" true
    (cons_busy.Exp_power.duration > 1.7 *. spread_busy.Exp_power.duration)

let test_ablation_quiesce_contrast () =
  match Exp_ablation.quiesce rc with
  | [ table ] ->
    let frozen_bytes = float_cell table 0 3 and live_bytes = float_cell table 1 3 in
    let frozen_passes = float_cell table 0 2 and live_passes = float_cell table 1 2 in
    Alcotest.(check bool) "live sends more" true (live_bytes > 1.5 *. frozen_bytes);
    Alcotest.(check bool) "live needs more passes" true (live_passes > frozen_passes)
  | _ -> Alcotest.fail "expected one table"

(* --- Registry under the explicit run-context (refactor regressions) --- *)

let render tables =
  String.concat "\n--\n" (List.map Ninja_metrics.Table.to_csv tables)

let test_registry_names_unique () =
  let sorted = List.sort_uniq String.compare Registry.names in
  Alcotest.(check int) "names unique" (List.length Registry.names) (List.length sorted)

(* Every registered experiment completes in Quick mode under a fresh
   context and yields at least one table with rows; the metrics sink sees
   one CSV chunk per table. *)
let test_registry_all_complete () =
  List.iter
    (fun e ->
      let chunks = ref 0 in
      let ctx = Run_ctx.make ~metrics:(fun _ -> incr chunks) () in
      let tables = Registry.run_entry ctx e in
      if tables = [] then Alcotest.failf "%s produced no tables" e.Registry.name;
      List.iter
        (fun t ->
          if Ninja_metrics.Table.rows t = [] then
            Alcotest.failf "%s produced an empty table" e.Registry.name)
        tables;
      Alcotest.(check int)
        (e.Registry.name ^ " metrics chunks")
        (List.length tables) !chunks)
    Registry.all

(* Two runs under equal contexts are byte-identical — the determinism the
   parallel sweep runner's output guarantee rests on. *)
let test_registry_deterministic () =
  List.iter
    (fun name ->
      let e = Option.get (Registry.find name) in
      let once () = render (e.Registry.run (Run_ctx.make ~seed:7L ())) in
      Alcotest.(check string) (name ^ " deterministic") (once ()) (once ()))
    [ "table2"; "evacuation" ]

(* A pooled context must produce byte-identical tables to a serial one,
   whatever the completion order of the grid points, and each of the
   three sinks must receive the same chunk sequence. *)
let test_registry_parallel_identical () =
  let e = Option.get (Registry.find "fig6") in
  let run pool =
    let m = Mutex.create () in
    let trace = ref [] and metrics = ref [] and spans = ref [] in
    let sink r chunk = Mutex.protect m (fun () -> r := chunk :: !r) in
    let ctx =
      Run_ctx.make ~trace:(sink trace) ~metrics:(sink metrics) ~spans:(sink spans) ?pool ()
    in
    let tables = render (Registry.run_entry ctx e) in
    (tables, List.map (fun r -> List.rev !r) [ trace; metrics; spans ])
  in
  let serial, serial_chunks = run None in
  let parallel, parallel_chunks = Pool.with_pool ~size:4 (fun pool -> run (Some pool)) in
  Alcotest.(check string) "fig6 -j4 == -j1" serial parallel;
  List.iter2
    (fun name (s, p) ->
      Alcotest.(check bool) (name ^ " received chunks") true (s <> []);
      Alcotest.(check (list string)) (name ^ " chunk sequence") s p)
    [ "trace"; "metrics"; "spans" ]
    (List.combine serial_chunks parallel_chunks)

(* A trace sink renders the probe bus without touching the results: the
   tables match an untraced run byte for byte, and the timeline holds one
   block per simulation with exactly one [Probe.pp] line per event the
   bus delivered ([Probe.emitted], reported as "probe_events"). *)
let test_fig6_trace_renders_probe_events () =
  let e = Option.get (Registry.find "fig6") in
  let plain = render (e.Registry.run rc) in
  let chunks = ref [] and emitted = ref 0.0 in
  let ctx =
    Run_ctx.make
      ~trace:(fun c -> chunks := c :: !chunks)
      ~observe:(fun name v -> if name = "probe_events" then emitted := !emitted +. v)
      ()
  in
  Alcotest.(check string) "tables unchanged by a trace sink" plain (render (e.Registry.run ctx));
  let lines =
    List.concat_map (String.split_on_char '\n') (List.rev !chunks)
    |> List.filter (fun l -> l <> "")
  in
  let headers, events = List.partition (String.starts_with ~prefix:"-- trace (seed ") lines in
  Alcotest.(check int) "one block per simulation" 2 (List.length headers);
  Alcotest.(check int) "one line per emitted event" (int_of_float !emitted) (List.length events);
  Alcotest.(check bool) "events were emitted" true (events <> []);
  Alcotest.(check bool) "every line is a Probe.pp rendering" true
    (List.for_all (fun l -> l.[0] = '[' && String.contains l '/') events);
  (* Two migrations under the three-fence protocol. *)
  let action a =
    List.length
      (List.filter
         (fun l ->
           match String.split_on_char ' ' l with _ :: ta :: _ -> ta = a | _ -> false)
         events)
  in
  Alcotest.(check (list int)) "migrate/start, fence/enter, migrate/complete" [ 2; 6; 2 ]
    [ action "migrate/start"; action "fence/enter"; action "migrate/complete" ]

(* A seed change must actually reach the simulations: the context's seed
   initialises the PRNG of every simulation [fresh] creates. (Fault-free
   experiment tables are deliberately seed-insensitive — nothing on those
   paths draws — so this is asserted at the PRNG stream level.) *)
let test_registry_seed_threads () =
  let draw seed =
    let env = Exp_common.fresh (Run_ctx.make ~seed ()) in
    Prng.next_int64 (Sim.prng env.Exp_common.sim)
  in
  Alcotest.(check bool) "same seed, same stream" true (draw 42L = draw 42L);
  Alcotest.(check bool) "seed 42 vs 43 differ" true (draw 42L <> draw 43L)

let () =
  Alcotest.run "ninja_experiments"
    [
      ( "experiments",
        [
          Alcotest.test_case "registry" `Quick test_registry_complete;
          Alcotest.test_case "table1" `Quick test_table1_static;
          Alcotest.test_case "table2 vs paper" `Quick test_table2_matches_paper;
          Alcotest.test_case "fig6 shape" `Quick test_fig6_shape;
          Alcotest.test_case "fig7 claims" `Slow test_fig7_claims;
          Alcotest.test_case "fig8 phases" `Quick test_fig8_phases;
          Alcotest.test_case "fig8 procs/VM" `Quick test_fig8_more_procs_faster_on_ib;
          Alcotest.test_case "ablation bypass" `Quick test_ablation_bypass_ordering;
          Alcotest.test_case "ablation rdma" `Quick test_ablation_rdma_speedup;
          Alcotest.test_case "ablation quiesce" `Quick test_ablation_quiesce_contrast;
          Alcotest.test_case "ablation postcopy" `Quick test_ablation_postcopy_tradeoff;
          Alcotest.test_case "postcopy vs precopy across topologies" `Quick
            test_postcopy_experiment_claims;
          Alcotest.test_case "evacuation planner" `Quick test_evacuation_grouped_beats_sequential;
          Alcotest.test_case "placement swap converges" `Quick test_placement_swap_converges;
          Alcotest.test_case "learned pricing within 5% of declared" `Quick
            test_placement_learned_matches_declared;
          Alcotest.test_case "scalability congestion" `Quick test_scalability_congestion;
          Alcotest.test_case "power consolidation" `Slow test_power_consolidation;
        ] );
      ( "registry-context",
        [
          Alcotest.test_case "names unique" `Quick test_registry_names_unique;
          Alcotest.test_case "all complete under fresh ctx" `Slow test_registry_all_complete;
          Alcotest.test_case "same seed, same tables" `Quick test_registry_deterministic;
          Alcotest.test_case "pooled == serial" `Quick test_registry_parallel_identical;
          Alcotest.test_case "fig6 trace renders probe events" `Quick
            test_fig6_trace_renders_probe_events;
          Alcotest.test_case "seed threads through" `Quick test_registry_seed_threads;
        ] );
    ]
