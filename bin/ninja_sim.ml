(* ninja-sim: run any of the paper's experiments from the command line.

   Examples:
     ninja_sim list
     ninja_sim run table2
     ninja_sim run fig8 --full --seed 7
     ninja_sim run all --csv out/
     ninja_sim plan --vms 4 --strategy grouped
*)

open Cmdliner
open Ninja_experiments

let seed_arg =
  let doc = "PRNG seed for the simulation(s), for reproducibly variable runs." in
  Arg.(value & opt (some int64) None & info [ "seed" ] ~docv:"SEED" ~doc)

(* The flags below are shared by several commands and declared once; a
   command passes its own sentence ([extra]) to append to the doc. *)

let strategy_arg extra =
  let parse s = Ninja_planner.Solver.of_string s |> Result.map_error (fun e -> `Msg e) in
  let c =
    Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Ninja_planner.Solver.name s))
  in
  let doc = Printf.sprintf "Planner strategy: %s.%s" (Ninja_planner.Solver.help ()) extra in
  Arg.(value & opt (some c) None & info [ "strategy" ] ~docv:"STRATEGY" ~doc)

let default_strategy_doc =
  Printf.sprintf " Default: %s." (Ninja_planner.Solver.name Ninja_planner.Solver.default)

let mode_arg extra =
  let parse s =
    Ninja_vmm.Migration.mode_of_string s |> Result.map_error (fun e -> `Msg e)
  in
  let c =
    Arg.conv
      (parse, fun fmt m -> Format.pp_print_string fmt (Ninja_vmm.Migration.mode_name m))
  in
  let doc =
    "Migration copy mode: $(b,precopy) (iterative dirty rounds, then stop-and-copy; \
     rollback restores the source on failure) or $(b,postcopy) (switch over after a \
     hot-set push, then demand-page over the fabric; once the switchover commits a \
     source death makes the VM unrecoverably $(i,lost) — there is no rollback)."
    ^ extra
  in
  Arg.(value & opt (some c) None & info [ "mode" ] ~docv:"MODE" ~doc)

let traffic_arg extra =
  let parse s = Ninja_workloads.Traffic.of_string s |> Result.map_error (fun e -> `Msg e) in
  let c =
    Arg.conv
      (parse, fun fmt p -> Format.pp_print_string fmt (Ninja_workloads.Traffic.to_string p))
  in
  let doc =
    "Tenant traffic pattern: PATTERN[:K=V{,K=V}] where PATTERN is uniform, ring or \
     skewed and keys are rate (bytes/s), elephants and factor. Example: \
     'skewed:elephants=2,rate=1e5,factor=16'."
    ^ extra
  in
  Arg.(value & opt (some c) None & info [ "traffic" ] ~docv:"PATTERN" ~doc)

(* The contents of an input file. An unreadable one is [cmd]'s one-line
   error, [cmd: path: reason], and exits 1. *)
let read_input ~cmd path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    (* An open error names the path already; a read error does not. *)
    let msg = if String.starts_with ~prefix:(path ^ ": ") msg then msg else path ^ ": " ^ msg in
    prerr_endline (cmd ^ ": " ^ msg);
    exit 1

(* -j/--jobs; a value below 1 is reported as [cmd]'s error and exits 1. *)
let jobs_arg ~cmd extra =
  let doc =
    "Run up to $(docv) simulations domain-parallel; output is byte-identical to -j 1."
    ^ extra
  in
  let at_least_one n =
    if n < 1 then begin
      prerr_endline (cmd ^ ": --jobs must be at least 1");
      exit 1
    end;
    n
  in
  Term.(const at_least_one $ Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc))

(* --trace/--metrics/--spans: the output files of one command. *)
let outputs_arg ~metrics ~spans =
  let file name doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)
  in
  Term.(
    const (fun trace metrics spans -> (trace, metrics, spans))
    $ file "trace"
        "Write the simulation trace timelines to $(docv): every probe event, one line \
         each, one block per simulation."
    $ file "metrics" ("Write metrics to $(docv) as CSV: " ^ metrics)
    $ file "spans"
        ("Write telemetry spans to $(docv) as Chrome trace-event JSON (load it in \
          Perfetto or chrome://tracing), timestamps in simulated time: " ^ spans))

let fault_conv =
  let parse s =
    Ninja_faults.Injector.parse_spec s |> Result.map_error (fun e -> `Msg e)
  in
  Arg.conv (parse, Ninja_faults.Injector.pp_spec)

let topology_conv =
  let parse s =
    Ninja_hardware.Topology.of_string s |> Result.map_error (fun e -> `Msg e)
  in
  Arg.conv (parse, Ninja_hardware.Topology.pp)

let topology_arg =
  let doc =
    "Build clusters from a generated datacenter topology instead of the AGC testbed \
     spec. $(docv) is TIER[:K=V{,K=V}] where TIER is leaf-spine or fat-tree and keys \
     are pods, racks (per pod), hosts (per rack), ib-pods (leading pods that are \
     InfiniBand islands), oversub (leaf oversubscription ratio), cores, mem-gb and \
     seed (drives VM placement). Example: \
     'leaf-spine:pods=4,racks=2,hosts=8,ib-pods=2,oversub=4'."
  in
  Arg.(value & opt (some topology_conv) None & info [ "topology" ] ~docv:"TOPO" ~doc)

let fault_args =
  let doc =
    "Arm a fault before the run (repeatable). $(docv) is \
     POINT[@SITE][:PARAM{,PARAM}] where POINT is one of precopy-stall, \
     precopy-abort, qmp-timeout, attach-fail, agent-crash, node-death; SITE \
     narrows it to one VM or node name; PARAMs are t=SEC (fire at sim-time), \
     n=N (fire on the Nth hit), p=PROB (fire probabilistically) and count=N \
     or count=inf (firing budget, default 1). Example: \
     'precopy-abort@vm0:n=1,count=inf'."
  in
  Arg.(value & opt_all fault_conv [] & info [ "fault" ] ~docv:"SPEC" ~doc)

let print_tables ~csv_dir name tables =
  List.iter Ninja_metrics.Table.print tables;
  match csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iteri
      (fun i table ->
        let path = Filename.concat dir (Printf.sprintf "%s-%d.csv" name i) in
        let oc = open_out path in
        output_string oc (Ninja_metrics.Table.to_csv table);
        close_out oc;
        Printf.printf "wrote %s\n%!" path)
      tables

let with_pool jobs k =
  if jobs > 1 then Ninja_engine.Pool.with_pool ~size:jobs (fun p -> k (Some p)) else k None

(* --seed --fault --topology --traffic --mode -j --trace --metrics --spans,
   the flags [run] and [serve] share, as one term. Its value runs a
   command body under the context they describe: it fills the context's
   text fields, runs the command's [check] on that context (an [Error]
   is [cmd]'s one-line error, exit 1, before any output file exists),
   opens the output files and the pool, runs the body, then writes the
   spans document. Pooled work replays its sink chunks in submission
   order ({!Ninja_engine.Run_ctx.buffered}), so the files are
   byte-identical at any -j. A command passes its own default seed and
   its own --help sentences. *)
let run_ctx_term ~cmd ~default_seed ~traffic ~mode ~jobs ~metrics ~spans =
  let session seed faults topology traffic migration jobs (trace, metrics, spans) ~check body =
    let ctx =
      Ninja_engine.Run_ctx.make
        ~seed:(Option.value seed ~default:default_seed)
        ~faults:(List.map Ninja_faults.Injector.spec_to_string faults)
        ?topology:(Option.map Ninja_hardware.Topology.to_string topology)
        ?traffic:(Option.map Ninja_workloads.Traffic.to_string traffic)
        ?migration:(Option.map Ninja_vmm.Migration.mode_name migration)
        ()
    in
    (match check ctx with
    | Ok () -> ()
    | Error msg ->
      prerr_endline (cmd ^ ": " ^ msg);
      exit 1);
    let with_out path k =
      match path with
      | None -> k None
      | Some path ->
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> k (Some oc))
    in
    (* Trace and metrics chunks end in a newline in the files. *)
    let lines oc chunk =
      output_string oc chunk;
      if chunk = "" || chunk.[String.length chunk - 1] <> '\n' then output_char oc '\n'
    in
    with_out trace @@ fun trace_oc ->
    with_out metrics @@ fun metrics_oc ->
    with_pool jobs @@ fun pool ->
    let fragments = ref [] in
    let ctx =
      { ctx with
        Ninja_engine.Run_ctx.trace = Option.map lines trace_oc;
        metrics = Option.map lines metrics_oc;
        spans = Option.map (fun _ chunk -> fragments := chunk :: !fragments) spans;
        pool
      }
    in
    let result = body ctx in
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Ninja_telemetry.Export.document (List.rev !fragments));
        close_out oc;
        Printf.printf "wrote %s\n%!" path)
      spans;
    result
  in
  Term.(
    const session $ seed_arg $ fault_args $ topology_arg $ traffic_arg traffic
    $ mode_arg mode $ jobs_arg ~cmd jobs $ outputs_arg ~metrics ~spans)

let list_cmd =
  let doc = "List the available experiments." in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-18s %s\n" e.Registry.name e.Registry.description)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run an experiment (or 'all') and print its tables." in
  let name_arg =
    let doc = "Experiment name (see 'list'), or 'all'." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let full =
    let doc = "Use the paper's full-scale parameters (slower) instead of quick mode." in
    Arg.(value & flag & info [ "full" ] ~doc)
  in
  let csv_dir =
    let doc = "Also write each table as CSV into $(docv)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let run name full csv_dir session =
    let entries =
      if String.equal name "all" then Ok Registry.all
      else
        match Registry.find name with
        | Some e -> Ok [ e ]
        | None ->
          Error
            (Printf.sprintf "unknown experiment %S; expected one of: all, %s" name
               (String.concat ", " Registry.names))
    in
    match entries with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok entries ->
      let open Ninja_engine in
      session ~check:(fun _ -> Ok ()) @@ fun ctx ->
      let ctx = { ctx with Run_ctx.mode = (if full then Run_ctx.Full else Run_ctx.Quick) } in
      let print_result e tables =
        Printf.printf "== %s: %s ==\n%!" e.Registry.name e.Registry.description;
        print_tables ~csv_dir e.Registry.name tables
      in
      (* Submit everything up front, then print in submission order as
         results arrive: parallel output is byte-identical to serial. *)
      match ctx.Run_ctx.pool with
      | Some p ->
        let task e () = Run_ctx.buffered ctx (fun ctx -> Registry.run_entry ctx e) in
        entries
        |> List.map (fun e -> (e, Pool.submit p (task e)))
        |> List.iter (fun (e, fut) ->
               let tables, replay = Pool.await p fut in
               print_result e tables;
               replay ())
      | None -> List.iter (fun e -> print_result e (Registry.run_entry ctx e)) entries
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ name_arg $ full $ csv_dir
      $ run_ctx_term ~cmd:"run" ~default_seed:42L
          ~traffic:
            " Traffic-aware experiments (placement) sweep this single pattern instead of \
             their built-in pattern axis."
          ~mode:
            " Experiments that perform Ninja migrations (fig6, ...) use it instead of their \
             precopy default."
          ~jobs:
            " Parallelises the experiments of 'run all' and each experiment's internal point \
             grid (fig6 sizes, fig7 kernels, the evacuation matrix, ...)."
          ~metrics:
            "every produced table, in experiment order, and under --spans the telemetry \
             metrics of each simulation."
          ~spans:"one process track per node/component, one thread per VM/role.")

(* `ninja_sim script [FILE]`: execute a Fig. 5-style migration script
   against a canned demo scenario (2 VMs on the IB cluster running a
   bcast+reduce job). With no FILE, runs the paper's Fig. 5 script. *)
let script_cmd =
  let doc = "Execute a textual migration script (see Script_lang; default: the paper's Fig. 5)." in
  let file =
    let doc = "Script file; '-' or absent runs the built-in Fig. 5 script." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file seed =
    let text =
      match file with
      | None | Some "-" -> Ninja_core.Script_lang.fig5
      | Some path -> read_input ~cmd:"script" path
    in
    match Ninja_core.Script_lang.parse text with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok commands ->
      let open Ninja_engine in
      let open Ninja_hardware in
      let sim = Sim.create ~seed:(Option.value seed ~default:3L) () in
      let cluster = Cluster.create sim () in
      let hosts = [ Cluster.find_node cluster "ib00"; Cluster.find_node cluster "ib01" ] in
      let ninja = Ninja_core.Ninja.setup cluster ~hosts () in
      ignore
        (Ninja_core.Ninja.launch ninja ~procs_per_vm:4 (fun ctx ->
             Ninja_workloads.Bcast_reduce.run ctx ~data_per_node:4.0e9 ~procs_per_vm:4
               ~steps:60 ()));
      Printf.printf "executing %d script commands against a 2-VM demo job:\n"
        (List.length commands);
      List.iter
        (fun c -> Printf.printf "  %s\n" (Ninja_core.Script_lang.command_to_string c))
        commands;
      Sim.spawn sim (fun () ->
          Sim.sleep (Time.sec 10);
          let b = Ninja_core.Script_lang.execute ninja commands in
          Format.printf "script done: %a@." Ninja_metrics.Breakdown.pp b;
          List.iter
            (fun vm ->
              Printf.printf "%s now on %s\n" (Ninja_vmm.Vm.name vm)
                (Ninja_vmm.Vm.host vm).Node.name)
            (Ninja_core.Ninja.vms ninja);
          Ninja_core.Ninja.wait_job ninja);
      Sim.run sim;
      Printf.printf "job finished at %.1f simulated seconds.\n" (Time.to_sec_f (Sim.now sim))
  in
  Cmd.v (Cmd.info "script" ~doc) Term.(const run $ file $ seed_arg)

(* `ninja_sim plan`: build, print and execute a batch evacuation plan on a
   demo scenario (N idle VMs on the IB rack, one constrained inter-rack
   uplink), showing the planner's step DAG, wave decomposition and the
   measured makespan of the chosen strategy. *)
let plan_cmd =
  let doc = "Build and execute a batch migration plan on a demo evacuation scenario." in
  let vms =
    let doc = "Number of VMs to evacuate (1-8)." in
    Arg.(value & opt int 4 & info [ "vms" ] ~docv:"N" ~doc)
  in
  let uplink =
    let doc = "Inter-rack uplink capacity in Gb/s." in
    Arg.(value & opt float 10.0 & info [ "uplink-gbps" ] ~docv:"GBPS" ~doc)
  in
  let run n strategy uplink_gbps seed =
    let strategy = Option.value strategy ~default:Ninja_planner.Solver.default in
    if n < 1 || n > 8 then begin
      prerr_endline "plan: --vms must be between 1 and 8";
      exit 1
    end;
    if not (uplink_gbps > 0.0 && Float.is_finite uplink_gbps) then begin
      prerr_endline "plan: --uplink-gbps must be positive and finite";
      exit 1
    end;
    let open Ninja_engine in
    let open Ninja_hardware in
    let open Ninja_planner in
    let sim = Sim.create ~seed:(Option.value seed ~default:42L) () in
    let cluster = Cluster.create sim () in
    Cluster.set_inter_rack cluster ~rack_a:0 ~rack_b:1
      ~capacity:(Units.gbps uplink_gbps) ~latency:(Time.us 50);
    let host i = Cluster.find_node cluster (Printf.sprintf "ib%02d" i) in
    let dst i = Cluster.find_node cluster (Printf.sprintf "eth%02d" i) in
    let vms =
      List.init n (fun i ->
          Ninja_vmm.Vm.create cluster
            ~name:(Printf.sprintf "vm%d" i)
            ~host:(host i) ~vcpus:8 ~mem_bytes:(Units.gb 20.0) ())
    in
    let table = List.mapi (fun i vm -> (vm, dst i)) vms in
    let dst_of vm = List.assq vm table in
    let plan = Plan.of_assignment cluster ~vms ~dst_of () in
    Format.printf "%a@." Plan.pp plan;
    List.iteri
      (fun i wave ->
        Format.printf "wave %d: %s@." (i + 1)
          (String.concat ", "
             (List.map (fun (s : Plan.step) -> Ninja_vmm.Vm.name s.Plan.vm) wave)))
      (Solver.grouped_waves cluster plan);
    let solved = Solver.solve strategy cluster plan in
    Format.printf "executing with strategy %s...@." (Solver.name strategy);
    let report = ref None in
    Sim.spawn sim (fun () -> report := Some (Executor.run cluster solved));
    Sim.run sim;
    Format.printf "%a@." Executor.pp_report (Option.get !report)
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(const run $ vms $ strategy_arg default_strategy_doc $ uplink $ seed_arg)

(* `ninja_sim check`: fuzz the migration protocol with the invariant
   checker, writing a replayable repro file for every failure; or replay
   one such file deterministically. *)
let check_cmd =
  let doc =
    "Fuzz random migration scenarios under the protocol invariant checker \
     (lib/check), or replay a repro file."
  in
  let n =
    let doc = "Number of random scenarios to run." in
    Arg.(value & opt int 100 & info [ "n"; "count" ] ~docv:"N" ~doc)
  in
  let out_dir =
    let doc = "Directory for repro files of failing scenarios." in
    Arg.(value & opt string "repros" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let plant =
    let doc =
      "Plant a known protocol bug into every scenario (self-test of the checker): \
       $(b,skip-rollback) or $(b,skip-fence). The campaign then $(i,fails) unless the \
       checker catches it."
    in
    let plants =
      List.map (fun p -> (Ninja_check.Scenario.plant_name p, p)) Ninja_check.Scenario.plants
    in
    Arg.(value & opt (some (enum plants)) None & info [ "plant" ] ~docv:"BUG" ~doc)
  in
  let no_shrink =
    let doc = "Skip counterexample minimisation." in
    Arg.(value & flag & info [ "no-shrink" ] ~doc)
  in
  let replay =
    let doc = "Re-run the exact scenario serialised in $(docv) instead of fuzzing." in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let run n jobs out_dir plant strategy mig_mode no_shrink replay seed topology =
    let open Ninja_check in
    match replay with
    | Some path ->
      (match Scenario.of_string (read_input ~cmd:"check --replay" path) with
      | Error msg ->
        prerr_endline ("check --replay: " ^ msg);
        exit 1
      | Ok scenario ->
        let r = Runner.run scenario in
        Format.printf "%a@." Runner.pp_result r;
        if Runner.failed r then exit 1)
    | None ->
      if n < 1 then begin
        prerr_endline "check: -n must be at least 1";
        exit 1
      end;
      with_pool jobs @@ fun pool ->
      let ctx = Ninja_engine.Run_ctx.make ?seed ?pool () in
      let summary =
        Fuzz.campaign ctx ~n ?plant ?topology ?strategy ?mode:mig_mode
          ~shrink:(not no_shrink) ()
      in
      Format.printf "%a@." Fuzz.pp_summary summary;
      if summary.Fuzz.failures <> [] then begin
        if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
        List.iter
          (fun (f : Fuzz.failure) ->
            let path = Filename.concat out_dir (Printf.sprintf "repro-%d.txt" f.Fuzz.index) in
            let oc = open_out path in
            output_string oc (Fuzz.repro_of f);
            close_out oc;
            Printf.printf "wrote %s (replay with: ninja_sim check --replay %s)\n%!" path path)
          summary.Fuzz.failures;
        exit 1
      end
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const run $ n
      $ jobs_arg ~cmd:"check" " Each scenario is one simulation."
      $ out_dir $ plant
      $ strategy_arg
          " Pins every generated scenario to one strategy (the CI strategy matrix); \
           default: the generator mixes them."
      $ mode_arg
          " Pins every generated scenario to one mode (the CI mode matrix); default: the \
           generator mixes them, roughly one in three postcopy."
      $ no_shrink $ replay $ seed_arg $ topology_arg)

(* `ninja_sim serve`: run the continuous control plane — an open-loop
   request stream served by the long-running migration scheduler — under
   the protocol invariant checker, and report SLO percentiles. *)
let serve_cmd =
  let doc =
    "Run the continuous control plane: a long-lived migration service consuming an \
     open-loop request stream (rebalance, placement changes, evacuations, failovers), \
     checked against the protocol invariants. Exits 2 on an invariant violation or a \
     stranded request, 3 on an SLO breach."
  in
  let duration =
    let doc = "Simulated service duration in seconds." in
    Arg.(value & opt float 3600.0 & info [ "duration" ] ~docv:"SEC" ~doc)
  in
  let rate =
    let doc = "Mean Poisson arrival rate, requests per simulated second." in
    Arg.(value & opt float 0.2 & info [ "rate" ] ~docv:"R" ~doc)
  in
  let burst_period =
    let doc = "Overlay a burst source: one burst every $(docv) seconds (0 disables)." in
    Arg.(value & opt float 0.0 & info [ "burst-period" ] ~docv:"SEC" ~doc)
  in
  let burst_size =
    let doc = "Requests per burst." in
    Arg.(value & opt int 4 & info [ "burst-size" ] ~docv:"N" ~doc)
  in
  let burst_spread =
    let doc = "Burst arrival jitter in seconds." in
    Arg.(value & opt float 5.0 & info [ "burst-spread" ] ~docv:"SEC" ~doc)
  in
  let tenants =
    let doc = "Number of tenants (weights cycle 3:2:1)." in
    Arg.(value & opt int 3 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let vms_per_tenant =
    let doc = "VMs booted per tenant." in
    Arg.(value & opt int 2 & info [ "vms-per-tenant" ] ~docv:"N" ~doc)
  in
  let mem_gb =
    let doc = "Memory per VM in GB." in
    Arg.(value & opt float 8.0 & info [ "mem-gb" ] ~docv:"GB" ~doc)
  in
  let auto_swap =
    let doc =
      "Run the online destination-swap policy: between batches the dispatcher prices \
       every VM pair against a traffic matrix and submits the best improving exchange \
       (most useful with --traffic). $(docv) selects the matrix: $(b,declared) (the \
       tenants' declared matrices; the default when the flag is given bare) or \
       $(b,learned) (the flow monitor's sampled reconstruction — the policy never \
       reads the declared rates)."
    in
    Arg.(
      value
      & opt ~vopt:(Some "declared") (some string) None
      & info [ "auto-swap" ] ~docv:"PRICING" ~doc)
  in
  let stats_file =
    let doc =
      "Write periodic flow-telemetry snapshots (Prometheus text exposition: link \
       utilization, learned pair rates, hotspots, SLO burn rate) to $(docv); \
       deterministic and byte-identical under -j."
    in
    Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE" ~doc)
  in
  let stats_every =
    let doc = "Simulated seconds between --stats snapshots." in
    Arg.(value & opt float 300.0 & info [ "stats-every" ] ~docv:"SEC" ~doc)
  in
  let top_k =
    let doc =
      "Append a top-style flow report to each seed's output: top-$(docv) hot links, \
       top-$(docv) talker VM pairs, per-tenant SLO attainment."
    in
    Arg.(value & opt (some int) None & info [ "top" ] ~docv:"K" ~doc)
  in
  let max_inflight =
    let doc = "Concurrent non-overlapping batch plans." in
    Arg.(value & opt int 2 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let queue_cap =
    let doc = "Admission bound per tenant queue." in
    Arg.(value & opt int 8 & info [ "queue-cap" ] ~docv:"N" ~doc)
  in
  let slo =
    let doc = "p99 request-latency SLO in seconds; a breach exits 3." in
    Arg.(value & opt (some float) None & info [ "slo" ] ~docv:"SEC" ~doc)
  in
  let seeds =
    let doc = "Run one service simulation per seed (repeatable; default: --seed or 1)." in
    Arg.(value & opt_all int64 [] & info [ "seeds" ] ~docv:"SEED" ~doc)
  in
  let show_log =
    let doc = "Print the per-request service log." in
    Arg.(value & flag & info [ "log" ] ~doc)
  in
  let run duration rate burst_period burst_size burst_spread tenants vms_per_tenant mem_gb
      strategy auto_swap stats_file stats_every top_k max_inflight queue_cap slo seeds
      show_log session =
    let strategy = Option.value strategy ~default:Ninja_planner.Solver.default in
    let positive x = x > 0.0 && Float.is_finite x in
    List.iter
      (fun (ok, msg) ->
        if not ok then begin
          prerr_endline ("serve: " ^ msg);
          exit 1
        end)
      [
        (positive duration, "--duration must be positive and finite");
        (rate >= 0.0 && Float.is_finite rate, "--rate must be non-negative and finite");
        (tenants >= 1, "--tenants must be at least 1");
        (vms_per_tenant >= 0, "--vms-per-tenant must be non-negative");
        (max_inflight >= 1, "--max-inflight must be at least 1");
        (queue_cap >= 1, "--queue-cap must be at least 1");
        (positive mem_gb, "--mem-gb must be positive and finite");
        (positive stats_every, "--stats-every must be positive and finite");
        (Option.fold slo ~none:true ~some:positive, "--slo must be positive and finite");
        ( burst_period = 0.0 || positive burst_period,
          "--burst-period must be 0 or positive and finite" );
        (burst_period = 0.0 || burst_size >= 0, "--burst-size must be non-negative");
        ( burst_period = 0.0 || (burst_spread >= 0.0 && burst_spread <= burst_period),
          "--burst-spread must lie within [0, --burst-period]" );
        (Option.fold top_k ~none:true ~some:(fun k -> k >= 1), "--top must be at least 1");
      ];
    (* Boot placement depends on the context's cluster, so this check
       runs in the session, still before any output file is opened. *)
    let fits ctx =
      let vms = tenants * vms_per_tenant in
      if
        Ninja_controlplane.Service.fits (Exp_common.fresh ctx).Exp_common.cluster ~vms
          ~mem_bytes:(Ninja_hardware.Units.gb mem_gb)
      then Ok ()
      else Error (Printf.sprintf "--mem-gb %g: %d VMs do not fit in the cluster's memory" mem_gb vms)
    in
    let open Ninja_engine in
    let open Ninja_controlplane in
    let auto_swap =
      match auto_swap with
      | None -> None
      | Some text -> (
        match Service.swap_pricing_of_string text with
        | Ok p -> Some p
        | Error msg ->
          prerr_endline ("serve: --auto-swap: " ^ msg);
          exit 1)
    in
    (* The flow monitor is armed only when something consumes it; plain
       serve runs keep their exact PRNG draws and output. *)
    let flowmon =
      if stats_file <> None || top_k <> None || auto_swap = Some Service.Learned then
        Some
          { Ninja_telemetry.Flowmon.default_config with
            Ninja_telemetry.Flowmon.snapshot_every =
              (if stats_file <> None then stats_every else 0.0)
          }
      else None
    in
    let process =
      let base = Ninja_workloads.Arrivals.Poisson { rate } in
      if burst_period > 0.0 then
        Ninja_workloads.Arrivals.Overlay
          [ base;
            Ninja_workloads.Arrivals.Bursts
              { period = burst_period; size = burst_size; spread = burst_spread } ]
      else base
    in
    let worst =
      session ~check:fits @@ fun ctx ->
      let ctx = Run_ctx.with_label "serve" ctx in
      let mig_mode = Exp_common.migration_mode ctx and traffic = Exp_common.traffic ctx in
      let config =
        { Service.default_config with
          strategy;
          mode = mig_mode;
          max_inflight;
          queue_cap;
          auto_swap
        }
      in
      let serve_one ctx seed =
        let { Exp_controlplane.service = svc; flowmon = fm; violations } =
          Exp_controlplane.serve (Run_ctx.with_seed seed ctx) ?traffic ?flowmon ~tenants
            ~vms_per_tenant ~mem_gb ~config ~process ~duration ()
        in
        let b = Buffer.create 1024 in
        let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
        pf "== serve: seed %Ld, %.0fs at rate %.3g/s, strategy %s, mode %s ==\n" seed
          duration rate
          (Ninja_planner.Solver.name strategy)
          (Ninja_vmm.Migration.mode_name mig_mode);
        if show_log then List.iter (fun line -> pf "%s\n" line) (Service.log svc);
        let c name = int_of_float (Service.count svc name) in
        pf
          "requests: %d submitted, %d completed, %d rejected, %d dropped, %d failed \
           (%d deferrals, %d requeues, %d rollbacks, %d stranded VMs, %d lost VMs)\n"
          (Service.submitted svc) (c "ctl.requests.completed") (c "ctl.requests.rejected")
          (c "ctl.requests.dropped") (c "ctl.requests.failed") (c "ctl.requests.deferred")
          (c "ctl.requests.requeued") (c "ctl.batches.rolled_back") (c "ctl.vms.stranded")
          (c "ctl.vms.lost");
        (match Service.latency_percentiles svc with
        | None -> pf "request latency: no completed requests\n"
        | Some (p50, p95, p99) ->
          pf "request latency: p50 %.1fs, p95 %.1fs, p99 %.1fs\n" p50 p95 p99);
        (match
           Ninja_telemetry.Metrics.samples (Service.metrics svc) "ctl.vm.downtime.seconds"
         with
        | [] -> pf "vm downtime: none\n"
        | samples ->
          pf "vm downtime: %d fenced intervals, max %.2fs, total %.2fs\n"
            (List.length samples)
            (List.fold_left Float.max 0.0 samples)
            (List.fold_left ( +. ) 0.0 samples));
        Option.iter
          (fun fm ->
            pf "flowmon: %d ticks, slo burn rate %.3f, %d hot links, %d learned pairs\n"
              (Ninja_telemetry.Flowmon.ticks fm)
              (Ninja_telemetry.Flowmon.burn_rate fm)
              (List.length (Ninja_telemetry.Flowmon.hotspots fm))
              (List.length (Ninja_telemetry.Flowmon.learned fm)))
          fm;
        pf "%s"
          (Format.asprintf "%a" Ninja_metrics.Table.pp
             (Ninja_telemetry.Metrics.to_table (Service.metrics svc)));
        (match (fm, top_k) with
        | Some fm, Some k ->
          List.iter
            (fun tbl -> pf "%s" (Format.asprintf "%a" Ninja_metrics.Table.pp tbl))
            (Ninja_telemetry.Flowmon.report ~k fm)
        | _ -> ());
        let status = ref 0 in
        (match Service.accounting svc with
        | Ok () -> ()
        | Error msg ->
          pf "ACCOUNTING VIOLATION: %s\n" msg;
          status := 2);
        if violations <> [] then begin
          List.iter
            (fun v ->
              pf "INVARIANT VIOLATION: %s\n"
                (Format.asprintf "%a" Ninja_check.Checker.pp_violation v))
            violations;
          status := 2
        end;
        (match (slo, Service.latency_percentiles svc) with
        | Some budget, Some (_, _, p99) when p99 > budget && !status = 0 ->
          pf "SLO BREACH: p99 %.1fs > %.1fs\n" p99 budget;
          status := 3
        | _ -> ());
        let stats =
          match (fm, stats_file) with
          | Some fm, Some _ ->
            let snaps = Ninja_telemetry.Flowmon.snapshots fm in
            Printf.sprintf "# flowmon seed=%Ld snapshots=%d\n%s" seed (List.length snaps)
              (String.concat "" snaps)
          | _ -> ""
        in
        (!status, Buffer.contents b, stats)
      in
      let seeds = if seeds = [] then [ ctx.Run_ctx.seed ] else seeds in
      let results = Exp_common.sweep ctx ~f:serve_one seeds in
      List.iter (fun (_, report, _) -> print_string report) results;
      Option.iter
        (fun path ->
          let oc = open_out path in
          List.iter (fun (_, _, stats) -> output_string oc stats) results;
          close_out oc;
          Printf.printf "wrote %s\n%!" path)
        stats_file;
      List.fold_left (fun acc (status, _, _) -> max acc status) 0 results
    in
    if worst <> 0 then exit worst
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ duration $ rate $ burst_period $ burst_size $ burst_spread $ tenants
      $ vms_per_tenant $ mem_gb
      $ strategy_arg default_strategy_doc
      $ auto_swap $ stats_file $ stats_every $ top_k $ max_inflight $ queue_cap $ slo $ seeds
      $ show_log
      $ run_ctx_term ~cmd:"serve" ~default_seed:1L
          ~traffic:
            " Each tenant draws a seeded matrix; cost-model strategies and the auto-swap \
             policy price placements against it."
          ~mode:
            " Stamped on every request the service draws (default: precopy); a postcopy \
             request whose source dies mid-drain leaves the VM lost (counted, never \
             resumed)."
          ~jobs:" Each seed is one simulation."
          ~metrics:"under --spans, the telemetry metrics of each run."
          ~spans:"one controlplane thread per request.")

let () =
  let doc = "Ninja migration reproduction: run the paper's experiments on the simulator." in
  let info = Cmd.info "ninja_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ list_cmd; run_cmd; script_cmd; plan_cmd; check_cmd; serve_cmd ]))
