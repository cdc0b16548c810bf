open Ninja_engine
open Ninja_metrics
open Ninja_planner
open Ninja_controlplane
open Ninja_telemetry
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

let learned_traffic (fconfig : Flowmon.config) fm () =
  if Flowmon.observed_window fm <= 0.0 then []
  else
    Ninja_workloads.Traffic.of_observations ~sample_rate:fconfig.Flowmon.sample_rate
      ~pkt_bytes:fconfig.Flowmon.pkt_bytes ~window:(Flowmon.observed_window fm)
      (Flowmon.samples fm)

type served = {
  service : Service.t;
  flowmon : Flowmon.t option;
  violations : Ninja_check.Checker.violation list;
}

let serve rc ?traffic ?flowmon ~tenants ~vms_per_tenant ~mem_gb ~config ~process ~duration
    () =
  let env = fresh rc in
  let specs =
    let weight i = [| 3.0; 2.0; 1.0 |].(i mod 3) in
    Service.boot_tenants ?traffic env.cluster
      ~tenants:(List.init tenants (fun i -> (Printf.sprintf "t%d" i, weight i)))
      ~vms_per_tenant ~mem_bytes:(Ninja_hardware.Units.gb mem_gb)
  in
  (* The learned hook is a forward reference: the monitor needs the
     service's registry, the service config needs the monitor's
     estimate — tie the knot through a ref. *)
  let learned_ref = ref (fun () -> []) in
  let config =
    { config with
      Service.learned_traffic =
        (if config.Service.auto_swap = Some Service.Learned then
           Some (fun () -> !learned_ref ())
         else None)
    }
  in
  let service = Service.create env.cluster ~config ~tenants:specs () in
  let flowmon =
    Option.map
      (fun fconfig ->
        let traffic =
          List.concat_map (fun (ts : Service.tenant_spec) -> ts.Service.traffic) specs
        in
        let fm =
          Flowmon.create ~config:fconfig ~registry:(Service.metrics service) env.cluster
            ~traffic
        in
        learned_ref := learned_traffic fconfig fm;
        Flowmon.start fm ~horizon:duration;
        fm)
      flowmon
  in
  let checker = Ninja_check.Checker.install env.cluster ~vms:(Service.vms service) in
  Service.open_loop service ~process ~horizon:duration;
  run_to_completion env;
  Run_ctx.observe env.ctx "swap_pairs_priced"
    (float_of_int (Service.swap_pairs_priced service));
  Run_ctx.observe env.ctx "swap_pair_costs" (float_of_int (Service.swap_pair_costs service));
  Option.iter
    (fun fm -> Run_ctx.observe env.ctx "link_polls" (float_of_int (Flowmon.polls fm)))
    flowmon;
  Ninja_check.Checker.check_finish checker;
  Ninja_check.Checker.detach checker;
  Option.iter Flowmon.detach flowmon;
  { service; flowmon; violations = Ninja_check.Checker.violations checker }

let measure rc ~rate ~strategy ~duration =
  let { service = svc; violations; _ } =
    serve rc ~tenants:3 ~vms_per_tenant:2 ~mem_gb:8.0
      ~config:{ Service.default_config with strategy }
      ~process:(Ninja_workloads.Arrivals.Poisson { rate })
      ~duration ()
  in
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
        (Metrics.samples (Service.metrics svc) "ctl.vm.downtime.seconds");
    violations = List.length violations;
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
        measure rc ~rate ~strategy ~duration)
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
