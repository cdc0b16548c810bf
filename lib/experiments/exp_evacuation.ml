open Ninja_engine
open Ninja_hardware
open Ninja_metrics
open Ninja_core
open Ninja_scheduler
open Ninja_planner
open Ninja_workloads
open Exp_common

type row = {
  n_vms : int;
  strategy : Solver.t;
  steps : int;
  makespan : float;
  mean_step : float;
  downtime : float;
  total : float;
}

let measure rc ~n_vms ~strategy ?(uplink_gbps = 10.0) () =
  let env = fresh ~spec:Spec.agc rc in
  let sim = env.sim and cluster = env.cluster in
  (* The racks share one constrained uplink — the contended bottleneck
     every evacuation step must cross. *)
  Cluster.set_inter_rack cluster ~rack_a:0 ~rack_b:1 ~capacity:(Units.gbps uplink_gbps)
    ~latency:(Time.us 50);
  let srcs = hosts cluster ~prefix:"ib" ~first:0 ~count:n_vms in
  let ninja = Ninja.setup cluster ~hosts:srcs () in
  ignore
    (Ninja.launch ninja ~procs_per_vm:1 (fun ctx ->
         Memtest.run_until ctx ~array_bytes:(Units.gb 2.0) ~until:600.0 ()));
  let sched = Cloud_scheduler.create ~strategy ninja in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 10);
      ignore (Cloud_scheduler.execute sched (Cloud_scheduler.Disaster { rack = 0 }));
      Ninja.wait_job ninja);
  run_to_completion env;
  match Cloud_scheduler.history sched with
  | [ r ] ->
    let report = Option.get r.Cloud_scheduler.report in
    let steps = List.length report.Executor.step_results in
    let mean_step =
      if steps = 0 then 0.0
      else
        List.fold_left
          (fun acc (sr : Executor.step_result) ->
            acc +. sec (Time.diff sr.Executor.finished sr.Executor.started))
          0.0 report.Executor.step_results
        /. float_of_int steps
    in
    {
      n_vms;
      strategy;
      steps;
      makespan = sec report.Executor.makespan;
      mean_step;
      downtime = sec report.Executor.total_downtime;
      total = sec r.Cloud_scheduler.breakdown.Breakdown.total;
    }
  | l -> failwith (Printf.sprintf "exp_evacuation: expected 1 record, got %d" (List.length l))

let run rc =
  let counts = match rc.Run_ctx.mode with Quick -> [ 2; 4 ] | Full -> [ 2; 4; 8 ] in
  let uplink_gbps = 10.0 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Batch evacuation makespan: sequential vs grouped planner over a %.0f Gb/s \
            inter-rack uplink"
           uplink_gbps)
      ~columns:
        [
          "VMs"; "strategy"; "steps"; "makespan [s]"; "mean step [s]"; "downtime [s]";
          "total [s]";
        ]
  in
  (* Pinned to the two makespan-oriented strategies: this grid feeds the
     bench trajectory, and the swap solver belongs to the communication
     -cost experiment (exp_placement), not the evacuation one. *)
  let strategies = [ Solver.Sequential; Solver.Grouped ] in
  let grid =
    List.concat_map (fun n_vms -> List.map (fun s -> (n_vms, s)) strategies) counts
  in
  sweep rc
    ~f:(fun rc (n_vms, strategy) -> measure rc ~n_vms ~strategy ~uplink_gbps ())
    grid
  |> List.iter (fun r ->
         Table.add_row table
           [
             string_of_int r.n_vms;
             Solver.name r.strategy;
             string_of_int r.steps;
             Printf.sprintf "%.1f" r.makespan;
             Printf.sprintf "%.1f" r.mean_step;
             Printf.sprintf "%.2f" r.downtime;
             Printf.sprintf "%.1f" r.total;
           ]);
  [ table ]
