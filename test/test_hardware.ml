(* Tests for the hardware layer: device constants, node construction,
   cluster topology/routing. *)

open Ninja_engine
open Ninja_hardware

let check_float = Alcotest.(check (float 1e-9))

let test_units () =
  check_float "gb" (20.0 *. 1073741824.0) (Units.gb 20.0);
  check_float "gbps" 1.25e9 (Units.gbps 10.0);
  Alcotest.(check string) "pp gib" "2.0 GiB" (Format.asprintf "%a" Units.pp_bytes (Units.gb 2.0));
  Alcotest.(check string) "pp b" "42 B" (Format.asprintf "%a" Units.pp_bytes 42.0)

let test_device_classes () =
  Alcotest.(check bool) "ib is bypass" true (Device.is_bypass Device.Ib_hca);
  Alcotest.(check bool) "virtio is not" false (Device.is_bypass Device.Virtio_net);
  Alcotest.(check bool) "ib faster than virtio" true
    (Device.bandwidth Device.Ib_hca > Device.bandwidth Device.Virtio_net);
  Alcotest.(check bool) "bypass has no cpu tax" true (Device.cpu_per_byte Device.Ib_hca = 0.0);
  Alcotest.(check bool) "virtio taxed" true (Device.cpu_per_byte Device.Virtio_net > 0.0);
  (* Table II structure: IB hotplug slower than Ethernet; IB link-up ~30 s,
     Ethernet immediate. *)
  Alcotest.(check bool) "ib detach slowest" true
    Time.(Device.detach_time Device.Ib_hca > Device.detach_time Device.Virtio_net);
  check_float "ib linkup ~30s" 29.85 (Time.to_sec_f (Device.linkup_time Device.Ib_hca));
  check_float "eth linkup 0" 0.0 (Time.to_sec_f (Device.linkup_time Device.Virtio_net))

let test_hotplug_solves_table2 () =
  (* The four Table II combinations from the calibrated constants. *)
  let sum a b = Time.to_sec_f (Time.add a b) in
  let ib_ib = sum Calibration.detach_ib Calibration.attach_ib in
  let ib_eth = sum Calibration.detach_ib Calibration.attach_eth in
  let eth_ib = sum Calibration.detach_eth Calibration.attach_ib in
  let eth_eth = sum Calibration.detach_eth Calibration.attach_eth in
  let close measured ours = Float.abs (measured -. ours) < 0.1 in
  Alcotest.(check bool) "IB->IB ~ 3.88" true (close 3.88 ib_ib);
  Alcotest.(check bool) "IB->Eth ~ 2.80" true (close 2.80 ib_eth);
  Alcotest.(check bool) "Eth->IB ~ 1.15" true (close 1.15 eth_ib);
  Alcotest.(check bool) "Eth->Eth ~ 0.13" true (close 0.13 eth_eth)

let test_spec_agc () =
  Alcotest.(check int) "16 nodes" 16 (Spec.total_nodes Spec.agc);
  Alcotest.(check int) "table1 rows" 9 (List.length Spec.table1)

let test_cluster_construction () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim () in
  Alcotest.(check int)
    "8 ib nodes" 8
    (List.length (List.filter Node.has_ib (Cluster.nodes cluster)));
  Alcotest.(check int) "8 eth nodes" 8 (List.length (Cluster.eth_only_nodes cluster));
  let ib0 = Cluster.find_node cluster "ib00" in
  let eth0 = Cluster.find_node cluster "eth00" in
  Alcotest.(check bool) "ib00 has ib" true (Node.has_ib ib0);
  Alcotest.(check bool) "eth00 has no ib" false (Node.has_ib eth0);
  check_float "8 cores" 8.0 (Ps_resource.capacity ib0.Node.cpu);
  check_float "48 GB" (Units.gb 48.0) ib0.Node.mem_bytes;
  Alcotest.check_raises "unknown node" Not_found (fun () ->
      ignore (Cluster.find_node cluster "nope"))

let test_cluster_routing () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim () in
  let ib0 = Cluster.find_node cluster "ib00" in
  let ib1 = Cluster.find_node cluster "ib01" in
  let eth0 = Cluster.find_node cluster "eth00" in
  (* IB between two IB nodes: two hops (tx, rx). *)
  Alcotest.(check int) "ib route hops" 2
    (List.length (Cluster.route cluster ~net:Cluster.Ib ~src:ib0 ~dst:ib1));
  (* Ethernet works everywhere. *)
  Alcotest.(check int) "eth route hops" 2
    (List.length (Cluster.route cluster ~net:Cluster.Eth ~src:ib0 ~dst:eth0));
  (* No IB path to an Ethernet-only node. *)
  Alcotest.(check bool) "no ib to eth rack" true
    (Cluster.route_opt cluster ~net:Cluster.Ib ~src:ib0 ~dst:eth0 = None);
  (* Same node: loopback. *)
  Alcotest.(check int) "loopback" 1
    (List.length (Cluster.route cluster ~net:Cluster.Eth ~src:ib0 ~dst:ib0));
  Alcotest.check_raises "route raises on unreachable"
    (Cluster.Unreachable "no ib path from ib00 to eth00") (fun () ->
      ignore (Cluster.route cluster ~net:Cluster.Ib ~src:ib0 ~dst:eth0))

let test_inter_rack_wan () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim () in
  let ib0 = Cluster.find_node cluster "ib00" in
  let eth0 = Cluster.find_node cluster "eth00" in
  Cluster.set_inter_rack cluster ~rack_a:0 ~rack_b:1 ~capacity:(Units.gbps 1.0)
    ~latency:(Time.ms 10);
  Alcotest.(check int) "wan hop present" 3
    (List.length (Cluster.route cluster ~net:Cluster.Eth ~src:ib0 ~dst:eth0));
  Alcotest.(check int) "reverse direction too" 3
    (List.length (Cluster.route cluster ~net:Cluster.Eth ~src:eth0 ~dst:ib0));
  let lat = Cluster.path_latency cluster ~net:Cluster.Eth ~src:ib0 ~dst:eth0 in
  Alcotest.(check bool) "latency includes wan" true Time.(lat > Time.ms 10)

let test_intra_rack_no_wan () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim () in
  let ib0 = Cluster.find_node cluster "ib00" in
  let ib1 = Cluster.find_node cluster "ib01" in
  Cluster.set_inter_rack cluster ~rack_a:0 ~rack_b:1 ~capacity:(Units.gbps 1.0)
    ~latency:(Time.ms 10);
  Alcotest.(check int) "intra-rack path unchanged" 2
    (List.length (Cluster.route cluster ~net:Cluster.Eth ~src:ib0 ~dst:ib1))

let test_node_transfer_through_cluster () =
  (* End-to-end: an IB transfer between two nodes at IB bandwidth. *)
  let sim = Sim.create () in
  let cluster = Cluster.create sim () in
  let ib0 = Cluster.find_node cluster "ib00" in
  let ib1 = Cluster.find_node cluster "ib01" in
  let bytes = 3.2e9 in
  let elapsed = ref 0.0 in
  Sim.spawn sim (fun () ->
      let route = Cluster.route cluster ~net:Cluster.Ib ~src:ib0 ~dst:ib1 in
      Ninja_flownet.Fabric.transfer (Cluster.fabric cluster) ~route ~bytes;
      elapsed := Time.to_sec_f (Sim.now sim));
  Sim.run sim;
  check_float "1 s at QDR rate" 1.0 !elapsed

let test_power_model () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim ~spec:Spec.small () in
  let node = Cluster.find_node cluster "ib00" in
  let idle_node = Cluster.find_node cluster "ib01" in
  (* Full load on one node past the metering window; the other sleeps. *)
  Sim.spawn sim (fun () -> Ps_resource.consume node.Node.cpu ~demand:8.0 ~work:88.0);
  let meter =
    Power.measure sim ~until:(Time.sec 10) [ node; idle_node ]
  in
  Sim.run sim;
  Alcotest.(check int) "10 samples" 10 (Power.samples meter);
  let joules = Power.per_node_joules meter in
  let j_busy = List.assq node joules and j_idle = List.assq idle_node joules in
  check_float "busy: (160+110) W x 10 s" 2700.0 j_busy;
  check_float "asleep: 15 W x 10 s" 150.0 j_idle;
  check_float "total" 2850.0 (Power.energy_joules meter)

let test_power_partial_utilization () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim ~spec:Spec.small () in
  let node = Cluster.find_node cluster "ib00" in
  (* 2 of 8 cores busy: 160 + 110 x 0.25 = 187.5 W. *)
  Sim.spawn sim (fun () -> Ps_resource.consume node.Node.cpu ~demand:2.0 ~work:40.0);
  let meter = Power.measure sim ~until:(Time.sec 10) [ node ] in
  Sim.run sim;
  check_float "quarter load" 1875.0 (Power.energy_joules meter)

let ps_capacity_invariant_prop =
  (* Granted rates never exceed capacity, whatever the task mix. *)
  QCheck.Test.make ~name:"ps utilization bounded by 1" ~count:100
    QCheck.(small_list (pair (int_range 1 4) (int_range 1 10)))
    (fun tasks ->
      let sim = Sim.create () in
      let cpu = Ps_resource.create sim ~name:"cpu" ~capacity:4.0 in
      let ok = ref true in
      List.iter
        (fun (demand, work) ->
          Sim.spawn sim (fun () ->
              Ps_resource.consume cpu ~demand:(float_of_int demand)
                ~work:(float_of_int work)))
        tasks;
      Sim.spawn sim (fun () ->
          for _ = 1 to 5 do
            Sim.sleep (Time.ms 300);
            if Ps_resource.utilization cpu > 1.0 +. 1e-9 then ok := false
          done);
      Sim.run sim;
      !ok)

let () =
  Alcotest.run "ninja_hardware"
    [
      ( "hardware",
        [
          Alcotest.test_case "units" `Quick test_units;
          Alcotest.test_case "device classes" `Quick test_device_classes;
          Alcotest.test_case "hotplug solves Table II" `Quick test_hotplug_solves_table2;
          Alcotest.test_case "agc spec" `Quick test_spec_agc;
          Alcotest.test_case "cluster construction" `Quick test_cluster_construction;
          Alcotest.test_case "routing" `Quick test_cluster_routing;
          Alcotest.test_case "inter-rack wan" `Quick test_inter_rack_wan;
          Alcotest.test_case "intra-rack ignores wan" `Quick test_intra_rack_no_wan;
          Alcotest.test_case "transfer through cluster" `Quick test_node_transfer_through_cluster;
        ] );
      ( "power",
        Alcotest.test_case "model" `Quick test_power_model
        :: Alcotest.test_case "partial utilization" `Quick test_power_partial_utilization
        :: Qsuite.tests [ ps_capacity_invariant_prop ] );
    ]
