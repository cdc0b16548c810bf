(* Tests for placement policies and the cloud scheduler. *)

open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_mpi
open Ninja_core
open Ninja_scheduler

let setup () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim ~spec:Spec.agc () in
  (sim, cluster)

let hosts cluster prefix n =
  List.init n (fun i -> Cluster.find_node cluster (Printf.sprintf "%s%02d" prefix i))

let launch_idle_job ninja =
  ignore
    (Ninja.launch ninja ~procs_per_vm:1 (fun ctx ->
         while Mpi.wtime ctx < 200.0 do
           Mpi.compute ctx ~seconds:0.5;
           Mpi.barrier ctx;
           Mpi.checkpoint_point ctx
         done))

(* ------------------------------------------------------------------ *)
(* Placement *)

let test_nodes_free () =
  let _, cluster = setup () in
  let ninja = Ninja.setup cluster ~hosts:(hosts cluster "ib" 3) () in
  let free = Placement.nodes_free cluster ~vms:(Ninja.vms ninja) in
  Alcotest.(check int) "13 of 16 free" 13 (List.length free);
  Alcotest.(check bool) "occupied not listed" true
    (not (List.exists (fun (n : Node.t) -> n.Node.name = "ib00") free))

let test_evacuation_plan_prefers_ib () =
  let _, cluster = setup () in
  let ninja = Ninja.setup cluster ~hosts:(hosts cluster "ib" 2) () in
  let vms = Ninja.vms ninja in
  (* Evacuate ib00 only; free IB nodes exist, so the refugee goes to one. *)
  let plan =
    Placement.evacuation_plan cluster ~vms ~avoid:(fun n -> n.Node.name = "ib00")
  in
  let vm0 = List.hd vms and vm1 = List.nth vms 1 in
  Alcotest.(check bool) "moved off ib00" true ((plan vm0).Node.name <> "ib00");
  Alcotest.(check bool) "prefers an IB refuge" true (Node.has_ib (plan vm0));
  Alcotest.(check string) "unaffected VM stays" "ib01" (plan vm1).Node.name

let test_evacuation_plan_rack () =
  let _, cluster = setup () in
  let ninja = Ninja.setup cluster ~hosts:(hosts cluster "ib" 4) () in
  let plan =
    Placement.evacuation_plan cluster ~vms:(Ninja.vms ninja) ~avoid:(fun n -> n.Node.rack = 0)
  in
  List.iter
    (fun vm -> Alcotest.(check int) "all to rack 1" 1 (plan vm).Node.rack)
    (Ninja.vms ninja)

let test_evacuation_capacity_failure () =
  let _, cluster = setup () in
  (* 16 VMs fill the cluster; evacuating rack 0 has nowhere to go. *)
  let ninja = Ninja.setup cluster ~hosts:(hosts cluster "ib" 8 @ hosts cluster "eth" 8) () in
  Alcotest.check_raises "capacity" (Failure "Placement.evacuation_plan: not enough free nodes")
    (fun () ->
      let (_ : Vm.t -> Node.t) =
        Placement.evacuation_plan cluster ~vms:(Ninja.vms ninja) ~avoid:(fun n ->
            n.Node.rack = 0)
      in
      ())

let test_consolidation_plan_packs () =
  let _, cluster = setup () in
  let ninja = Ninja.setup cluster ~hosts:(hosts cluster "ib" 4) () in
  let targets = hosts cluster "eth" 2 in
  let plan =
    Placement.consolidation_plan cluster ~vms:(Ninja.vms ninja) ~vms_per_host:2 ~targets
  in
  let names = List.map (fun vm -> (plan vm).Node.name) (Ninja.vms ninja) in
  Alcotest.(check (list string)) "2 per host, in order"
    [ "eth00"; "eth00"; "eth01"; "eth01" ]
    names

let test_spread_plan () =
  let _, cluster = setup () in
  let ninja = Ninja.setup cluster ~hosts:(hosts cluster "ib" 2) () in
  let plan = Placement.spread_plan cluster ~vms:(Ninja.vms ninja) ~targets:(hosts cluster "eth" 2) in
  Alcotest.(check (list string)) "one per target" [ "eth00"; "eth01" ]
    (List.map (fun vm -> (plan vm).Node.name) (Ninja.vms ninja));
  Alcotest.check_raises "too few targets" (Failure "Placement.spread_plan: not enough target nodes")
    (fun () ->
      let (_ : Vm.t -> Node.t) =
        Placement.spread_plan cluster ~vms:(Ninja.vms ninja) ~targets:(hosts cluster "eth" 1)
      in
      ())

(* The filter + sort + head that [Placement.pack_least_loaded] replaced:
   every fitting candidate sorted by (projected load, node id), first
   taken. The oracle for its one-pass argmin. *)
let reference_pack ~vms ~candidates ~load_bytes ~bytes_of =
  let planned = Hashtbl.create 8 in
  let extra (n : Node.t) = Option.value (Hashtbl.find_opt planned n.Node.id) ~default:0.0 in
  let projected n = load_bytes n +. extra n in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | vm :: rest -> (
      let need = bytes_of vm in
      let fits n = projected n +. need <= n.Node.mem_bytes *. (1.0 +. 1e-9) in
      let sorted =
        candidates vm |> List.filter fits
        |> List.sort (fun a b ->
               match Float.compare (projected a) (projected b) with
               | 0 -> compare a.Node.id b.Node.id
               | c -> c)
      in
      match sorted with
      | [] -> Error (Printf.sprintf "no feasible destination for %s" (Vm.name vm))
      | n :: _ ->
        Hashtbl.replace planned n.Node.id (extra n +. need);
        go ((vm, n) :: acc) rest)
  in
  go [] vms

(* Random packings where the argmin's edge cases are common: loads, VM
   sizes and node capacities drawn from a few multiples of 4 GB (so equal
   loads and fits at the exact edge of a node's memory occur), each VM's
   candidates a random subset in random order, and some VMs with no room
   anywhere (the [Error] case). *)
let pack_least_loaded_prop =
  QCheck.Test.make ~name:"pack_least_loaded equals filter, sort and head" ~count:300
    QCheck.int (fun salt ->
      let prng = Prng.create ~seed:(Int64.add Qsuite.seed (Int64.of_int salt)) in
      let gb k = Units.gb (4.0 *. float_of_int k) in
      let k = 1 + Prng.int prng 8 in
      let spec =
        {
          Spec.name = "pack";
          groups =
            List.init k (fun i ->
                {
                  Spec.count = 1;
                  name_prefix = Printf.sprintf "n%d-" i;
                  rack = 0;
                  cores = 8.0;
                  mem_bytes = gb (2 + Prng.int prng 6);
                  with_ib = Prng.bool prng;
                });
        }
      in
      let cluster = Cluster.create (Sim.create ()) ~spec () in
      let nodes = Array.of_list (Cluster.nodes cluster) in
      let vms =
        List.init (1 + Prng.int prng 6) (fun i ->
            Vm.create cluster ~name:(Printf.sprintf "vm%d" i) ~host:nodes.(0) ~vcpus:1
              ~mem_bytes:(Units.gb 1.0) ())
      in
      let base = Array.map (fun _ -> gb (Prng.int prng 4)) nodes in
      let need = Hashtbl.create 8 and offered = Hashtbl.create 8 in
      List.iter
        (fun vm ->
          Hashtbl.replace need (Vm.name vm) (gb (1 + Prng.int prng 3));
          let subset =
            Array.of_list (List.filter (fun _ -> Prng.int prng 4 > 0) (Array.to_list nodes))
          in
          Prng.shuffle prng subset;
          Hashtbl.replace offered (Vm.name vm) (Array.to_list subset))
        vms;
      let candidates vm = Hashtbl.find offered (Vm.name vm) in
      let load_bytes (n : Node.t) = base.(n.Node.id) in
      let bytes_of vm = Hashtbl.find need (Vm.name vm) in
      let show = function
        | Ok l ->
          String.concat " "
            (List.map (fun (vm, (n : Node.t)) -> Vm.name vm ^ "->" ^ n.Node.name) l)
        | Error e -> "Error " ^ e
      in
      let got = Placement.pack_least_loaded ~vms ~candidates ~load_bytes ~bytes_of () in
      let want = reference_pack ~vms ~candidates ~load_bytes ~bytes_of in
      if show got <> show want then
        QCheck.Test.fail_reportf "pack_least_loaded: %s\nreference:         %s" (show got)
          (show want);
      true)

(* ------------------------------------------------------------------ *)
(* Cloud scheduler *)

let test_scheduler_executes_disaster () =
  let sim, cluster = setup () in
  let ninja = Ninja.setup cluster ~hosts:(hosts cluster "ib" 2) () in
  launch_idle_job ninja;
  let sched = Cloud_scheduler.create ninja in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 5);
      ignore (Cloud_scheduler.execute sched (Cloud_scheduler.Disaster { rack = 0 }));
      Ninja.wait_job ninja);
  Sim.run sim;
  List.iter
    (fun vm -> Alcotest.(check int) "evacuated" 1 (Vm.host vm).Node.rack)
    (Ninja.vms ninja);
  Alcotest.(check int) "history" 1 (List.length (Cloud_scheduler.history sched))

let test_scheduler_schedule_fires_later () =
  let sim, cluster = setup () in
  let ninja = Ninja.setup cluster ~hosts:(hosts cluster "ib" 2) () in
  launch_idle_job ninja;
  let sched = Cloud_scheduler.create ninja in
  Cloud_scheduler.schedule sched ~after:(Time.sec 10)
    (Cloud_scheduler.Maintenance { avoid = (fun n -> n.Node.name = "ib00") });
  Sim.spawn sim (fun () -> Ninja.wait_job ninja);
  Sim.run sim;
  match Cloud_scheduler.history sched with
  | [ r ] ->
    Alcotest.(check bool) "fired after delay" true Time.(r.Cloud_scheduler.at >= Time.sec 10);
    Alcotest.(check string) "named" "maintenance" (Cloud_scheduler.trigger_name r.Cloud_scheduler.trigger)
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

let test_scheduler_consolidate_then_rebalance () =
  let sim, cluster = setup () in
  let ninja = Ninja.setup cluster ~hosts:(hosts cluster "ib" 4) () in
  launch_idle_job ninja;
  let sched = Cloud_scheduler.create ninja in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 5);
      ignore
        (Cloud_scheduler.execute sched
           (Cloud_scheduler.Consolidate { vms_per_host = 2; targets = hosts cluster "eth" 2 }));
      let used =
        List.sort_uniq compare
          (List.map (fun vm -> (Vm.host vm).Node.name) (Ninja.vms ninja))
      in
      Alcotest.(check (list string)) "packed" [ "eth00"; "eth01" ] used;
      Sim.sleep (Time.sec 5);
      ignore
        (Cloud_scheduler.execute sched (Cloud_scheduler.Rebalance { targets = hosts cluster "ib" 4 }));
      Ninja.wait_job ninja);
  Sim.run sim;
  Alcotest.(check (list string)) "spread back" [ "ib00"; "ib01"; "ib02"; "ib03" ]
    (List.map (fun vm -> (Vm.host vm).Node.name) (Ninja.vms ninja));
  Alcotest.(check int) "two records" 2 (List.length (Cloud_scheduler.history sched))

let () =
  Alcotest.run "ninja_scheduler"
    [
      ( "placement",
        [
          Alcotest.test_case "nodes_free" `Quick test_nodes_free;
          Alcotest.test_case "evacuation prefers IB" `Quick test_evacuation_plan_prefers_ib;
          Alcotest.test_case "evacuate a rack" `Quick test_evacuation_plan_rack;
          Alcotest.test_case "capacity failure" `Quick test_evacuation_capacity_failure;
          Alcotest.test_case "consolidation packs" `Quick test_consolidation_plan_packs;
          Alcotest.test_case "spread" `Quick test_spread_plan;
        ]
        @ Qsuite.tests [ pack_least_loaded_prop ] );
      ( "scheduler",
        [
          Alcotest.test_case "disaster evacuation" `Quick test_scheduler_executes_disaster;
          Alcotest.test_case "delayed trigger" `Quick test_scheduler_schedule_fires_later;
          Alcotest.test_case "consolidate+rebalance" `Quick test_scheduler_consolidate_then_rebalance;
        ] );
    ]
