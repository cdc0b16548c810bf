(* Bench harness.

   Default invocation regenerates every table and figure of the paper at
   paper-scale parameters, plus the ablations and extension studies, then
   runs the Bechamel micro-benchmarks of the simulator's hot paths.

     dune exec bench/main.exe                 # everything, paper-scale (~1-2 min)
     dune exec bench/main.exe -- quick        # everything, quick parameters
     dune exec bench/main.exe -- fig8         # one experiment (quick)
     dune exec bench/main.exe -- fig8 full    # one experiment, paper-scale
     dune exec bench/main.exe -- micro        # only the Bechamel suite
     dune exec bench/main.exe -- quick -j 4   # experiments domain-parallel, 4 cores

   Full-suite runs (no argument, [quick] or [full]) also write the next
   snapshot, BENCH_<N>.json, N one above the highest in the working
   directory; single-experiment and [micro] runs write nothing.
*)

(* Aliased before the opens: Toolkit shadows [Monotonic_clock] with its
   bechamel-instance wrapper, which has no [now]. *)
module Mclock = Monotonic_clock

open Bechamel
open Toolkit
open Ninja_experiments

(* ------------------------------------------------------------------ *)
(* Experiment tables *)

(* Monotonic wall seconds: under [-j N] an experiment's simulations run on
   several domains at once, so CPU time overstates (and [Sys.time] used to
   misreport) what the user actually waits. *)
let wall () = Int64.to_float (Mclock.now ()) /. 1e9

(* Machine-readable companion to the printed tables: per-entry wall-clock
   and CPU seconds, every counter the entry's simulations observe (and, at
   [-j 1], minor and major words), so perf regressions across snapshots can be
   compared without scraping stdout. [nproc] and the OCaml version say
   what a [-j N] row could use. *)
let next_snapshot () =
  Sys.readdir "."
  |> Array.fold_left
       (fun acc f ->
         if String.starts_with ~prefix:"BENCH_" f && String.ends_with ~suffix:".json" f then
           match int_of_string_opt (String.sub f 6 (String.length f - 11)) with
           | Some n -> max acc n
           | None -> acc
         else acc)
       0
  |> succ

(* What an entry's simulations report through the context's observation
   hook, summed by name over the entry. The counts are integers far below
   2^53, so their float sums are exact in any order, hence at any [-j]. *)
type sums = (string, float) Hashtbl.t

(* Every row carries these, in this order, then every other name observed,
   sorted; each under the name it is observed by, except [sim_events],
   which rows call [events]. *)
let first =
  [ "sim_s"; "sim_events"; "heap_insertions"; "rerates"; "swap_pairs_priced"; "link_polls" ]

let counters (sums : sums) =
  let others =
    Hashtbl.fold (fun name _ acc -> if List.mem name first then acc else name :: acc) sums []
  in
  List.map
    (fun name ->
      ( (if name = "sim_events" then "events" else name),
        Option.value (Hashtbl.find_opt sums name) ~default:0.0 ))
    (first @ List.sort String.compare others)

(* Counts print whole; simulated seconds to the millisecond. *)
let number v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.3f" v

let write_bench_json ctx ~total_wall ~total_cpu entries =
  let n = next_snapshot () in
  let path = Printf.sprintf "BENCH_%d.json" n in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"pr\": %d,\n  \"seed\": %Ld,\n  \"jobs\": %d,\n  \"mode\": %S,\n"
    n ctx.Ninja_engine.Run_ctx.seed
    (Ninja_engine.Run_ctx.jobs ctx)
    (match ctx.Ninja_engine.Run_ctx.mode with
    | Ninja_engine.Run_ctx.Quick -> "quick"
    | Ninja_engine.Run_ctx.Full -> "full");
  Printf.fprintf oc "  \"nproc\": %d,\n  \"ocaml\": %S,\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  Printf.fprintf oc "  \"total_wall_s\": %.3f,\n  \"total_cpu_s\": %.3f,\n  \"entries\": [\n"
    total_wall total_cpu;
  List.iteri
    (fun i (name, wall_s, cpu_s, sums, words) ->
      Printf.fprintf oc "    {\"name\": %S, \"wall_s\": %.3f, \"cpu_s\": %.3f%s%s}%s\n" name wall_s
        cpu_s
        (String.concat ""
           (List.map (fun (key, v) -> Printf.sprintf ", %S: %s" key (number v)) (counters sums)))
        (match words with
        | Some (minor, major) -> Printf.sprintf ", \"minor_words\": %.0f, \"major_words\": %.0f" minor major
        | None -> "")
        (if i = List.length entries - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let run_experiments ~snapshot ctx entries =
  let w0 = wall () and c0 = Sys.time () in
  let results = ref [] in
  List.iter
    (fun e ->
      Printf.printf "== %s: %s ==\n%!" e.Registry.name e.Registry.description;
      (* Each simulation reports through the context's observation hook,
         possibly from a pooled domain. *)
      let sums = Hashtbl.create 8 in
      let m = Mutex.create () in
      let ectx =
        Ninja_engine.Run_ctx.with_observer
          (Some
             (fun name v ->
               Mutex.protect m (fun () ->
                   Hashtbl.replace sums name
                     (v +. Option.value (Hashtbl.find_opt sums name) ~default:0.0))))
          ctx
      in
      (* Read outside the minor-words window, which [Gc.quick_stat]'s
         record would otherwise count. *)
      let jw = (Gc.quick_stat ()).major_words in
      let w = wall () and c = Sys.time () and mw = Gc.minor_words () in
      List.iter Ninja_metrics.Table.print (Registry.run_entry ectx e);
      let wall_s = wall () -. w and cpu_s = Sys.time () -. c in
      (* [Gc.minor_words] counts the calling domain only: exact at -j 1,
         an undercount once pooled domains share the work; major words
         (promoted ones included) are read the same way. *)
      let words =
        if Ninja_engine.Run_ctx.jobs ctx = 1 then begin
          let minor = Gc.minor_words () -. mw in
          Some (minor, (Gc.quick_stat ()).major_words -. jw)
        end
        else None
      in
      Printf.printf "(generated in %.1fs wall, %.1fs CPU, %s%s)\n\n%!" wall_s cpu_s
        (String.concat ", "
           (List.map (fun (key, v) -> Printf.sprintf "%s %s" key (number v)) (counters sums)))
        (match words with
        | Some (minor, major) ->
          Printf.sprintf ", %.3fG minor words, %.3fG major words" (minor /. 1e9) (major /. 1e9)
        | None -> "");
      results := (e.Registry.name, wall_s, cpu_s, sums, words) :: !results)
    entries;
  let total_wall = wall () -. w0 and total_cpu = Sys.time () -. c0 in
  Printf.printf "== total: %.1fs wall, %.1fs CPU (%d job%s) ==\n%!" total_wall total_cpu
    (Ninja_engine.Run_ctx.jobs ctx)
    (if Ninja_engine.Run_ctx.jobs ctx = 1 then "" else "s");
  if snapshot then write_bench_json ctx ~total_wall ~total_cpu (List.rev !results)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test per reproduced table/figure (a
   single representative configuration each, so the cost of regenerating
   a result is itself tracked), plus the simulator's hot paths. *)

open Ninja_engine

let bench_events =
  Test.make ~name:"engine/schedule x1k, cancel 1/3, run"
    (Staged.stage @@ fun () ->
    let sim = Sim.create () in
    for i = 0 to 999 do
      let h = Sim.schedule sim ~after:(Time.ns (i * 7919 mod 1000)) ignore in
      if i mod 3 = 0 then Sim.cancel sim h
    done;
    Sim.run sim)

let bench_fibers =
  Test.make ~name:"engine/spawn+run 100 sleeping fibers"
    (Staged.stage @@ fun () ->
    let sim = Sim.create () in
    for i = 1 to 100 do
      Sim.spawn sim (fun () -> Sim.sleep (Time.ms i))
    done;
    Sim.run sim)

let bench_fabric =
  Test.make ~name:"flownet/max-min re-rate, 32 flows"
    (Staged.stage @@ fun () ->
    let sim = Sim.create () in
    let fab = Ninja_flownet.Fabric.create sim in
    let links =
      Array.init 8 (fun i ->
          Ninja_flownet.Fabric.add_link fab ~name:(string_of_int i) ~capacity:1e9)
    in
    for i = 0 to 31 do
      Sim.spawn sim (fun () ->
          Ninja_flownet.Fabric.transfer fab
            ~route:[ links.(i mod 8); links.((i + 3) mod 8) ]
            ~bytes:1e8)
    done;
    Sim.run sim)

let bench_collective =
  Test.make ~name:"mpi/allreduce 100MB, 8 ranks"
    (Staged.stage @@ fun () ->
    let sim = Sim.create () in
    let cluster = Ninja_hardware.Cluster.create sim ~spec:Ninja_hardware.Spec.agc_ib16 () in
    let members =
      List.init 4 (fun i ->
          let host = Ninja_hardware.Cluster.node cluster i in
          let vm =
            Ninja_vmm.Vm.create cluster
              ~name:(Printf.sprintf "b%d" i)
              ~host ~vcpus:8 ~mem_bytes:21.5e9 ()
          in
          Ninja_vmm.Vm.attach_device vm (Ninja_hardware.Device.hca ());
          (vm, Ninja_guestos.Guest.boot vm))
    in
    let job =
      Ninja_mpi.Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx ->
          Ninja_mpi.Mpi.allreduce ctx ~bytes:1e8)
    in
    Sim.spawn sim (fun () -> Ninja_mpi.Runtime.wait job);
    Sim.run sim)

let bench_table2 =
  Test.make ~name:"experiment/table2 one combo (IB->IB, 8 VMs)"
    (Staged.stage @@ fun () ->
    let hotplug = ref 0.0 and linkup = ref 0.0 in
    Exp_table2.measure Run_ctx.default Paper_data.Ib_to_ib ~hotplug ~linkup)

let bench_fig6 =
  Test.make ~name:"experiment/fig6 one point (2GB memtest, 8 VMs)"
    (Staged.stage @@ fun () -> ignore (Exp_fig6.measure Run_ctx.default ~size_gb:2.0))

let bench_fig7 =
  Test.make ~name:"experiment/fig7 one kernel (CG, quick)"
    (Staged.stage @@ fun () -> ignore (Exp_fig7.measure Run_ctx.default Ninja_workloads.Npb.CG))

let bench_fig8 =
  Test.make ~name:"experiment/fig8 series (1 proc/VM, quick)"
    (Staged.stage @@ fun () -> ignore (Exp_fig8.measure Run_ctx.default ~procs_per_vm:1))

let micro_tests =
  Test.make_grouped ~name:"ninja" ~fmt:"%s %s"
    [
      bench_events;
      bench_fibers;
      bench_fabric;
      bench_collective;
      bench_table2;
      bench_fig6;
      bench_fig7;
      bench_fig8;
    ]

let run_micro () =
  print_endline "== Bechamel micro-benchmarks (wall-clock cost of the simulator) ==";
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Bechamel.Time.second 1.0) ~stabilize:false () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances micro_tests in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) ols [] in
  let table =
    Ninja_metrics.Table.create ~title:"simulator hot paths (OLS estimate per run)"
      ~columns:[ "benchmark"; "time/run"; "r^2" ]
  in
  List.iter
    (fun (name, o) ->
      let time_ns =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | Some [] | None -> Float.nan
      in
      let r2 = match Analyze.OLS.r_square o with Some r -> r | None -> Float.nan in
      Ninja_metrics.Table.add_row table
        [
          name;
          (if Float.is_nan time_ns then "n/a"
           else if time_ns > 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
           else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
           else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
           else Printf.sprintf "%.0f ns" time_ns);
          Printf.sprintf "%.4f" r2;
        ])
    (List.sort compare rows);
  Ninja_metrics.Table.print table

(* ------------------------------------------------------------------ *)

let usage () =
  Printf.sprintf
    "usage: main.exe [quick | full | micro | <experiment> [full]] [-j N]\nexperiments: %s\n"
    (String.concat ", " Registry.names)

(* Pull "-j N" / "--jobs N" out of the argument list (the first one
   counts). N must be a positive integer: anything else is a usage
   error, exit 2. *)
let rec extract_jobs = function
  | [] -> (1, [])
  | ("-j" | "--jobs") :: n :: rest
    when Option.fold (int_of_string_opt n) ~none:false ~some:(( <= ) 1) ->
    (int_of_string n, snd (extract_jobs rest))
  | (("-j" | "--jobs") as flag) :: _ ->
    Printf.eprintf "main.exe: %s takes a positive integer\n%s" flag (usage ());
    exit 2
  | arg :: rest ->
    let jobs, rest = extract_jobs rest in
    (jobs, arg :: rest)

let () =
  let jobs, args = extract_jobs (List.tl (Array.to_list Sys.argv)) in
  let with_ctx mode k =
    if jobs > 1 then
      Pool.with_pool ~size:jobs (fun pool -> k (Run_ctx.make ~mode ~pool ()))
    else k (Run_ctx.make ~mode ())
  in
  let one mode name =
    match Registry.find name with
    | Some e -> with_ctx mode (fun ctx -> run_experiments ~snapshot:false ctx [ e ])
    | None ->
      prerr_string (usage ());
      exit 2
  in
  match args with
  | [ "micro" ] -> run_micro ()
  | [ "quick" ] ->
    with_ctx Run_ctx.Quick (fun ctx -> run_experiments ~snapshot:true ctx Registry.all);
    run_micro ()
  | [ "full" ] | [] ->
    with_ctx Run_ctx.Full (fun ctx -> run_experiments ~snapshot:true ctx Registry.all);
    run_micro ()
  | [ name ] -> one Run_ctx.Quick name
  | [ name; "full" ] | [ "full"; name ] -> one Run_ctx.Full name
  | _ ->
    prerr_string (usage ());
    exit 2
