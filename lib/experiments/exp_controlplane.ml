open Ninja_engine
open Ninja_metrics
open Ninja_planner
open Ninja_controlplane
open Exp_common

type row = {
  rate : float;
  strategy : Solver.t;
  submitted : int;
  completed : int;
  rejected : int;
  dropped : int;
  failed : int;
  p50 : float;
  p95 : float;
  p99 : float;
  downtime : float;
  violations : int;
}

let measure rc ~rate ~strategy ~duration () =
  let env = fresh rc in
  let tenants =
    Service.boot_tenants env.cluster
      ~tenants:[ ("t0", 3.0); ("t1", 2.0); ("t2", 1.0) ]
      ~vms_per_tenant:2
      ~mem_bytes:(Ninja_hardware.Units.gb 8.0)
  in
  let config = { Service.default_config with strategy } in
  let svc = Service.create env.cluster ~config ~tenants () in
  let checker = Ninja_check.Checker.install env.cluster ~vms:(Service.vms svc) in
  Service.open_loop svc
    ~process:(Ninja_workloads.Arrivals.Poisson { rate })
    ~horizon:duration;
  run_to_completion env;
  Ninja_check.Checker.check_finish checker;
  Ninja_check.Checker.detach checker;
  (match Service.accounting svc with
  | Ok () -> ()
  | Error msg -> failwith ("exp_controlplane: stranded requests: " ^ msg));
  let c name = int_of_float (Service.count svc name) in
  let p50, p95, p99 =
    Option.value (Service.latency_percentiles svc) ~default:(0.0, 0.0, 0.0)
  in
  {
    rate;
    strategy;
    submitted = Service.submitted svc;
    completed = c "ctl.requests.completed";
    rejected = c "ctl.requests.rejected";
    dropped = c "ctl.requests.dropped";
    failed = c "ctl.requests.failed";
    p50;
    p95;
    p99;
    downtime =
      List.fold_left ( +. ) 0.0
        (Ninja_telemetry.Metrics.samples (Service.metrics svc) "ctl.vm.downtime.seconds");
    violations = List.length (Ninja_check.Checker.violations checker);
  }

let run rc =
  let duration, rates =
    match rc.Run_ctx.mode with
    | Quick -> (600.0, [ 0.05; 0.2 ])
    | Full -> (3600.0, [ 0.1; 0.5; 1.0 ])
  in
  (* Pinned: the swap solver is exercised by exp_placement; adding it here
     would grow the bench-gated grid. *)
  let strategies = [ Solver.Sequential; Solver.Grouped ] in
  let points =
    List.concat_map (fun rate -> List.map (fun s -> (rate, s)) strategies) rates
  in
  let rows =
    sweep rc points ~f:(fun rc (rate, strategy) ->
        measure rc ~rate ~strategy ~duration ())
  in
  let table =
    Table.create ~title:"control plane: request SLO by arrival rate and strategy"
      ~columns:
        [ "rate/s"; "strategy"; "submitted"; "completed"; "rejected"; "dropped";
          "failed"; "p50 s"; "p95 s"; "p99 s"; "downtime s"; "violations" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [ Printf.sprintf "%.2f" r.rate;
          Solver.name r.strategy;
          string_of_int r.submitted;
          string_of_int r.completed;
          string_of_int r.rejected;
          string_of_int r.dropped;
          string_of_int r.failed;
          Printf.sprintf "%.1f" r.p50;
          Printf.sprintf "%.1f" r.p95;
          Printf.sprintf "%.1f" r.p99;
          Printf.sprintf "%.1f" r.downtime;
          string_of_int r.violations ])
    rows;
  [ table ]
