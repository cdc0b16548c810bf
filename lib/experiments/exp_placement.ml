open Ninja_engine
open Ninja_hardware
open Ninja_metrics
open Ninja_planner
open Ninja_workloads
open Ninja_controlplane
open Exp_common

type row = {
  pattern : Traffic.pattern;
  strategy : Solver.t;
  pricing : Service.swap_pricing;
  vms : int;
  cost_start : float;
  cost_end : float;
  proposed : int;
  applied : int;
  noop : int;
  sim_end : float;
}

(* A generated leaf-spine datacenter: one IB pod, one Ethernet pod, 4:1
   oversubscribed uplinks — so demand crossing the spine is priced well
   above demand staying inside a rack, which is the gradient the swap
   strategy descends. *)
let leaf_spine ~hosts_per_rack =
  match
    Topology.v ~tier:Topology.Leaf_spine ~pods:2 ~racks_per_pod:2 ~hosts_per_rack
      ~ib_pods:1 ~oversub:4.0 ~mem_gb:32.0 ~seed:11L ()
  with
  | Ok t -> t
  | Error e -> failwith ("Exp_placement.leaf_spine: " ^ e)

let pattern_label p = List.hd (String.split_on_char ':' (Traffic.to_string p))

(* Sampling parameters for the [Learned] pricing variant: 2 s ticks at
   1-in-4 give a mouse pair (1 MB/s) ~330 samples/tick, so by the time
   the 20 s warm-up ends the estimate is already within a few percent
   and swap pricing descends essentially the same gradient as the
   declared matrix. *)
let fm_config =
  {
    Ninja_telemetry.Flowmon.default_config with
    Ninja_telemetry.Flowmon.period = 2.0;
    warmup = 20.0;
    sample_rate = 4;
  }

let measure rc ~pattern ~strategy ?(swap_pricing = Service.Declared) ~vms_per_tenant
    ~hosts_per_rack () =
  let topo = leaf_spine ~hosts_per_rack in
  let rc = Run_ctx.with_topology (Some (Topology.to_string topo)) rc in
  let env = fresh rc in
  let sim = env.sim and cluster = env.cluster in
  (* Round-robin boot interleaves the tenants across both pods: the
     communication-oblivious starting point every strategy shares. *)
  let tenants =
    Service.boot_tenants ~traffic:pattern cluster
      ~tenants:[ ("t0", 3.0); ("t1", 2.0); ("t2", 1.0) ]
      ~vms_per_tenant ~mem_bytes:(Units.gb 2.0)
  in
  let traffic =
    List.concat_map (fun (ts : Service.tenant_spec) -> ts.Service.traffic) tenants
  in
  let cost_env = Cost_model.env cluster ~traffic () in
  (* The online rebalance policy is the swap strategy's continuous form;
     the baselines run without it, so the comparison is adaptive
     placement vs none under identical churn. Under [Learned] pricing
     the policy never reads the declared matrices: it prices against the
     flow monitor's sampled reconstruction. *)
  let auto_swap = if strategy = Solver.Swap then Some swap_pricing else None in
  let fm =
    match auto_swap with
    | Some Service.Learned ->
      let fm = Ninja_telemetry.Flowmon.create ~config:fm_config cluster ~traffic in
      Ninja_telemetry.Flowmon.start fm ~horizon:120.0;
      Some fm
    | _ -> None
  in
  let learned_traffic = Option.map (Exp_controlplane.learned_traffic fm_config) fm in
  let config =
    { Service.default_config with Service.strategy; auto_swap; learned_traffic }
  in
  let svc = Service.create cluster ~config ~tenants () in
  let cost_start = Cost_model.current_cost cost_env in
  (* Churn: every tenant falls back to Ethernet, then returns to IB. The
     batch solver shapes each plan (the swap strategy re-aims
     destinations inside it); between batches the online policy keeps
     exchanging until no swap pays for itself. *)
  List.iteri
    (fun i (ts : Service.tenant_spec) ->
      let tenant = ts.Service.name in
      Service.inject svc
        ~after:(Time.of_sec_f (10.0 +. (3.0 *. float_of_int i)))
        (fun svc -> Service.make svc ~tenant ~kind:Request.Fallback ());
      Service.inject svc
        ~after:(Time.of_sec_f (45.0 +. (3.0 *. float_of_int i)))
        (fun svc -> Service.make svc ~tenant ~kind:Request.Return ()))
    tenants;
  run_to_completion env;
  (match Service.accounting svc with
  | Ok () -> ()
  | Error msg -> failwith ("Exp_placement: stranded requests: " ^ msg));
  Option.iter Ninja_telemetry.Flowmon.detach fm;
  let c name = int_of_float (Service.count svc name) in
  {
    pattern;
    strategy;
    pricing = swap_pricing;
    vms = List.length (Service.vms svc);
    cost_start;
    cost_end = Cost_model.current_cost cost_env;
    proposed = c "ctl.swap.proposed";
    applied = c "ctl.swap.applied";
    noop = c "ctl.swap.noop";
    sim_end = sec (Sim.now sim);
  }

let run rc =
  let vms_per_tenant, hosts_per_rack =
    match rc.Run_ctx.mode with Quick -> (3, 4) | Full -> (6, 8)
  in
  let patterns =
    match traffic rc with
    | Some p -> [ p ]
    | None ->
      [
        Traffic.Uniform { rate = Traffic.default_rate };
        Traffic.Ring { rate = Traffic.default_rate };
        Traffic.Skewed { elephants = 2; rate = Traffic.default_rate; factor = 16.0 };
      ]
  in
  (* Every (pattern, strategy) point prices against the declared
     matrices; skewed patterns add a swap variant priced against the
     learned (flow-sampled) matrix — the head-to-head the learned-mode
     acceptance bound is asserted on. *)
  let grid =
    List.concat_map
      (fun p ->
        List.map (fun s -> (p, s, Service.Declared)) (Solver.all ())
        @
        match p with
        | Traffic.Skewed _ -> [ (p, Solver.Swap, Service.Learned) ]
        | _ -> [])
      patterns
  in
  let table =
    Table.create
      ~title:
        "Adaptive placement: tenant communication cost by traffic pattern and \
         strategy (leaf-spine churn, online destination swaps)"
      ~columns:
        [
          "traffic"; "strategy"; "VMs"; "cost start"; "cost end"; "improvement [%]";
          "proposed"; "applied"; "noop"; "sim end [s]";
        ]
  in
  sweep rc
    ~f:(fun rc (pattern, strategy, swap_pricing) ->
      measure rc ~pattern ~strategy ~swap_pricing ~vms_per_tenant ~hosts_per_rack ())
    grid
  |> List.iter (fun r ->
         let improvement =
           if r.cost_start = 0.0 then 0.0
           else (r.cost_start -. r.cost_end) /. r.cost_start *. 100.0
         in
         Table.add_row table
           [
             pattern_label r.pattern;
             (Solver.name r.strategy
             ^ match r.pricing with Service.Learned -> "+learned" | Service.Declared -> "");
             string_of_int r.vms;
             Printf.sprintf "%.4f" r.cost_start;
             Printf.sprintf "%.4f" r.cost_end;
             Printf.sprintf "%.1f" improvement;
             string_of_int r.proposed;
             string_of_int r.applied;
             string_of_int r.noop;
             Printf.sprintf "%.1f" r.sim_end;
           ]);
  [ table ]
