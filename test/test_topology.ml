(* Datacenter topologies and the incremental Flownet solver, tested four
   ways: the topology generator itself (grammar, lowering, reachability,
   oversubscription, seeded placement); a differential suite racing the
   incremental max-min solver against the global reference over random
   join/leave/capacity sequences; the cluster's VM-placement index
   against a list-scan oracle under randomized churn; and the 1000-VM
   evacuation study under a host-CPU budget.

   Seeded from NINJA_TEST_SEED (default 1) so the CI seed matrix
   (1/7/1337) exercises distinct random streams. *)

open Ninja_engine
open Ninja_flownet
open Ninja_hardware

let env_seed =
  match Sys.getenv_opt "NINJA_TEST_SEED" with
  | Some s -> ( try Int64.of_string s with Failure _ -> 1L)
  | None -> 1L

let salted salt = Int64.add env_seed (Int64.of_int salt)

let ok_exn = function Ok t -> t | Error e -> Alcotest.failf "unexpected error: %s" e

(* ------------------------------------------------------------------ *)
(* Topology generator *)

let test_validate_and_parse_errors () =
  (match Topology.v ~pods:0 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "pods=0 must be rejected");
  (match Topology.v ~ib_pods:3 ~pods:2 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ib-pods > pods must be rejected");
  (match Topology.v ~oversub:0.5 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversub < 1 must be rejected");
  List.iter
    (fun text ->
      match Topology.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected %S to be rejected" text)
    [
      "ring";
      "leaf-spine:frobs=1";
      "leaf-spine:pods";
      "leaf-spine:pods=zero";
      "leaf-spine:pods=0";
      "fat-tree:oversub=0.25";
      "fat-tree:ib-pods=9,pods=2";
    ];
  let t = ok_exn (Topology.of_string "fat-tree:pods=3,ib-pods=2,hosts=4") in
  Alcotest.(check int) "pods" 3 t.Topology.pods;
  Alcotest.(check int) "ib-pods" 2 t.Topology.ib_pods;
  Alcotest.(check int) "hosts default overridden" 4 t.Topology.hosts_per_rack;
  Alcotest.(check int) "racks default" 2 t.Topology.racks_per_pod

let roundtrip_prop =
  QCheck.Test.make ~name:"topology text form round-trips" ~count:200 QCheck.small_int
    (fun salt ->
      let prng = Prng.create ~seed:(salted salt) in
      let t = Topology.gen prng in
      match Topology.of_string (Topology.to_string t) with
      | Ok t' -> t' = t
      | Error e -> QCheck.Test.fail_reportf "did not parse back: %s" e)

let test_same_seed_identical () =
  let draw () = Topology.gen (Prng.create ~seed:(salted 3)) in
  let a = draw () and b = draw () in
  Alcotest.(check bool) "same seed, same topology" true (a = b);
  Alcotest.(check string) "same textual form" (Topology.to_string a) (Topology.to_string b);
  Alcotest.(check bool) "same spec" true (Topology.to_spec a = Topology.to_spec b);
  let place t = Topology.place t ~vms:7 ~vm_bytes:(Units.gb 1.0) () in
  Alcotest.(check (list string)) "same placement" (place a) (place b)

let test_spec_lowering () =
  let prng = Prng.create ~seed:(salted 5) in
  for _ = 1 to 20 do
    let t = Topology.gen prng in
    let sim = Sim.create () in
    let cluster = Cluster.create sim ~topology:t () in
    let nodes = Cluster.nodes cluster in
    Alcotest.(check int) "node count" (Topology.host_count t) (List.length nodes);
    Alcotest.(check (list string))
      "names follow pod-major host order" (Topology.hosts t)
      (List.map (fun (n : Node.t) -> n.Node.name) nodes);
    (* Pod fabric-class homogeneity: a node carries an IB HCA exactly when
       its pod is an IB island. *)
    List.iter
      (fun (n : Node.t) ->
        let pod = Topology.pod_of_rack t n.Node.rack in
        Alcotest.(check bool)
          (Printf.sprintf "%s IB matches pod %d class" n.Node.name pod)
          (Topology.is_ib_pod t pod) (Node.has_ib n))
      nodes
  done

let test_reachability () =
  let prng = Prng.create ~seed:(salted 11) in
  for _ = 1 to 10 do
    let t = Topology.gen prng in
    let sim = Sim.create () in
    let cluster = Cluster.create sim ~topology:t () in
    let nodes = Array.of_list (Cluster.nodes cluster) in
    Array.iter
      (fun (src : Node.t) ->
        Array.iter
          (fun (dst : Node.t) ->
            (match Cluster.route_opt cluster ~net:Cluster.Eth ~src ~dst with
            | Some (_ :: _) -> ()
            | Some [] | None ->
              Alcotest.failf "no Ethernet path %s -> %s" src.Node.name dst.Node.name);
            let same_pod =
              Topology.pod_of_rack t src.Node.rack = Topology.pod_of_rack t dst.Node.rack
            in
            let ib = Cluster.route_opt cluster ~net:Cluster.Ib ~src ~dst in
            let expect_ib =
              src.Node.id = dst.Node.id
              || (Node.has_ib src && Node.has_ib dst && same_pod)
            in
            Alcotest.(check bool)
              (Printf.sprintf "IB path %s -> %s (pod-confined)" src.Node.name
                 dst.Node.name)
              expect_ib (ib <> None))
          nodes)
      nodes
  done

(* The aggregation links carry exactly the advertised capacities, and the
   advertised capacities honor the oversubscription ratio. *)
let test_oversubscription_capacities () =
  let t =
    ok_exn
      (Topology.v ~tier:Topology.Leaf_spine ~pods:3 ~racks_per_pod:2 ~hosts_per_rack:4
         ~ib_pods:1 ~oversub:4.0 ())
  in
  let leaf = Topology.leaf_capacity t in
  Alcotest.(check (float 1e-6))
    "leaf = hosts x eth10g / oversub"
    (4.0 *. Calibration.eth10g_bandwidth /. 4.0)
    leaf;
  Alcotest.(check (float 1e-6))
    "leaf-spine pod uplink re-applies the ratio"
    (2.0 *. leaf /. 4.0)
    (Topology.pod_capacity t);
  let ft = ok_exn (Topology.v ~tier:Topology.Fat_tree ~racks_per_pod:2 ~oversub:4.0 ()) in
  Alcotest.(check (float 1e-6))
    "fat-tree pod uplink carries the full leaf aggregate"
    (2.0 *. Topology.leaf_capacity ft)
    (Topology.pod_capacity ft);
  Alcotest.(check (float 1e-6))
    "IB aggregation is non-blocking"
    (4.0 *. Calibration.ib_bandwidth)
    (Topology.ib_capacity t);
  (* The cluster's fabric links carry these numbers. *)
  let sim = Sim.create () in
  let cluster = Cluster.create sim ~topology:t () in
  let cap name =
    match
      List.find_opt (fun l -> Fabric.link_name l = name) (Fabric.links (Cluster.fabric cluster))
    with
    | Some l -> Fabric.link_capacity l
    | None -> Alcotest.failf "fabric has no link %S" name
  in
  Alcotest.(check (float 1e-6)) "leaf.up.r0" leaf (cap "leaf.up.r0");
  Alcotest.(check (float 1e-6)) "leaf.down.r5" leaf (cap "leaf.down.r5");
  Alcotest.(check (float 1e-6)) "pod.up.p2" (Topology.pod_capacity t) (cap "pod.up.p2");
  Alcotest.(check (float 1e-6)) "ibagg.up.r1" (Topology.ib_capacity t) (cap "ibagg.up.r1")

let test_place () =
  let t =
    ok_exn
      (Topology.v ~pods:3 ~racks_per_pod:2 ~hosts_per_rack:2 ~ib_pods:1 ~mem_gb:8.0 ())
  in
  (* 2 GiB VMs: 4 slots per host; pod 0 has 4 hosts = 16 slots. *)
  let placement = Topology.place t ~pods:[ 0 ] ~vms:16 ~vm_bytes:(Units.gb 2.0) () in
  Alcotest.(check int) "every VM placed" 16 (List.length placement);
  let allowed = Topology.pod_hosts t 0 in
  List.iter
    (fun h ->
      if not (List.mem h allowed) then Alcotest.failf "%s outside the requested pod" h)
    placement;
  List.iter
    (fun h ->
      let k = List.length (List.filter (String.equal h) placement) in
      if k > 4 then Alcotest.failf "%s over its %d slots (%d VMs)" h 4 k)
    allowed;
  Alcotest.check_raises "over capacity rejected"
    (Invalid_argument "Topology.place: 17 VMs exceed capacity (4 hosts x 4 slots)")
    (fun () -> ignore (Topology.place t ~pods:[ 0 ] ~vms:17 ~vm_bytes:(Units.gb 2.0) ()))

let shrink_prop =
  QCheck.Test.make ~name:"topology shrinks stay valid and get smaller" ~count:200
    QCheck.small_int (fun salt ->
      let prng = Prng.create ~seed:(salted salt) in
      let t = Topology.gen prng in
      let size (t : Topology.t) =
        Topology.host_count t
        + (match t.Topology.tier with Topology.Leaf_spine -> 0 | Topology.Fat_tree -> 1)
        + int_of_float t.Topology.oversub
      in
      List.for_all
        (fun (c : Topology.t) ->
          (match Topology.validate c with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "shrink candidate invalid: %s" e);
          if c.Topology.ib_pods < 1 then
            QCheck.Test.fail_reportf "shrink dropped the last IB pod";
          if c.Topology.pods - c.Topology.ib_pods < 1 then
            QCheck.Test.fail_reportf "shrink dropped the last Ethernet pod";
          size c < size t)
        (Topology.shrink t))

(* The ninja_sim check hook: a campaign forced onto a generated topology
   runs green, and the scenario generator does emit topology scenarios on
   its own (one in four). *)
let test_fuzz_hook () =
  let open Ninja_check in
  let prng = Prng.create ~seed:(salted 17) in
  let topo = Topology.gen prng in
  let ctx = Run_ctx.make ~seed:env_seed () in
  let summary = Fuzz.campaign ctx ~n:3 ~topology:topo () in
  Alcotest.(check int) "forced-topology campaign total" 3 summary.Fuzz.total;
  Alcotest.(check int) "forced-topology campaign green" 3 summary.Fuzz.passed;
  let drawn = Fuzz.generate ~seed:(salted 19) ~n:40 in
  let with_topo =
    List.length (List.filter (fun sc -> sc.Scenario.topo <> None) drawn)
  in
  if with_topo = 0 then Alcotest.fail "no generated scenario carried a topology"

(* ------------------------------------------------------------------ *)
(* Differential: incremental vs global max-min solver *)

(* The reference flow-conservation check: sweep every live link and keep
   those whose flows exceed its capacity (the checker's tolerance). *)
let sweep fabric =
  List.filter
    (fun l ->
      Fabric.link_utilization fabric l > (Fabric.link_capacity l *. (1.0 +. 1e-6)) +. 1.0)
    (Fabric.links fabric)

(* What the checker relies on instead of the sweep: between two drains,
   every link whose utilisation or capacity changed was re-solved and so
   drained. [watch_changes fabric links] watches the fabric and returns a
   step check naming the first changed link the drain missed. *)
let watch_changes fabric links =
  Fabric.watch fabric;
  let state () =
    Array.map (fun l -> (Fabric.link_utilization fabric l, Fabric.link_capacity l)) links
  in
  let drained = Hashtbl.create 64 in
  Fabric.drain_resolved fabric ignore;
  let prev = ref (state ()) in
  fun () ->
    Hashtbl.reset drained;
    Fabric.drain_resolved fabric (fun l -> Hashtbl.replace drained (Fabric.link_id l) ());
    let now = state () in
    let missed = ref None in
    Array.iteri
      (fun i l ->
        let (u0, c0), (u1, c1) = (!prev.(i), now.(i)) in
        if
          !missed = None
          && ((not (Float.equal u0 u1)) || not (Float.equal c0 c1))
          && not (Hashtbl.mem drained (Fabric.link_id l))
        then
          missed :=
            Some
              (Printf.sprintf "%s changed (%.17g/%.17g -> %.17g/%.17g) but was not drained"
                 (Fabric.link_name l) u0 c0 u1 c1))
      links;
    prev := now;
    !missed

(* Drive one random join/leave/capacity-change sequence over two clusters
   built from the same generated topology, one per solver, and compare
   every live flow's rate after every operation. Flows carry far more
   bytes than could ever complete (the simulations never run), so the
   sequence exercises pure re-rating. After every operation both fabrics
   must also have reported every link that changed, and neither may hold
   an over-capacity link. *)
let paired_sequence ~ops ~solver_b ~compare_logs prng =
  let topo = Topology.gen prng in
  let mk solver = Cluster.create (Sim.create ()) ~topology:topo ~solver () in
  let ca = mk Fabric.Incremental and cb = mk solver_b in
  let fa = Cluster.fabric ca and fb = Cluster.fabric cb in
  let nodes_a = Array.of_list (Cluster.nodes ca) in
  let nodes_b = Array.of_list (Cluster.nodes cb) in
  let links_a = Array.of_list (Fabric.links fa) in
  let links_b = Array.of_list (Fabric.links fb) in
  let changes_a = watch_changes fa links_a and changes_b = watch_changes fb links_b in
  let n = Array.length nodes_a in
  let live = ref [] in
  let failure = ref None in
  let check_step step =
    List.iter
      (fun (x, y) ->
        let ra = Fabric.rate x and rb = Fabric.rate y in
        if Float.abs (ra -. rb) > 1e-9 *. Float.max 1.0 (Float.abs rb) then
          failure :=
            Some (Printf.sprintf "step %d: incremental %.17g vs reference %.17g" step ra rb))
      !live;
    if compare_logs && Fabric.last_bottlenecks fa <> Fabric.last_bottlenecks fb then
      failure := Some (Printf.sprintf "step %d: freeze logs diverge" step);
    List.iter
      (fun (tag, changes, fabric) ->
        (match changes () with
        | Some msg -> failure := Some (Printf.sprintf "step %d (%s): %s" step tag msg)
        | None -> ());
        match sweep fabric with
        | [] -> ()
        | l :: _ ->
          failure :=
            Some (Printf.sprintf "step %d (%s): %s over capacity" step tag (Fabric.link_name l)))
      [ ("incremental", changes_a, fa); ("reference", changes_b, fb) ]
  in
  for step = 1 to ops do
    (match !failure with
    | Some _ -> ()
    | None ->
      let x = Prng.int prng 100 in
      if x < 55 || !live = [] then begin
        let s = Prng.int prng n and d = Prng.int prng n in
        let want_ib =
          Node.has_ib nodes_a.(s) && Node.has_ib nodes_a.(d) && Prng.bool prng
        in
        let route c (nodes : Node.t array) =
          let attempt net = Cluster.route_opt c ~net ~src:nodes.(s) ~dst:nodes.(d) in
          match (if want_ib then attempt Cluster.Ib else None) with
          | Some r -> r
          | None -> ( match attempt Cluster.Eth with Some r -> r | None -> assert false)
        in
        let bytes = 1e12 *. float_of_int (1 + Prng.int prng 8) in
        let fx = Fabric.start fa ~route:(route ca nodes_a) ~bytes in
        let fy = Fabric.start fb ~route:(route cb nodes_b) ~bytes in
        live := (fx, fy) :: !live
      end
      else if x < 85 then begin
        let i = Prng.int prng (List.length !live) in
        let fx, fy = List.nth !live i in
        live := List.filteri (fun j _ -> j <> i) !live;
        Fabric.cancel fa fx;
        Fabric.cancel fb fy
      end
      else begin
        let li = Prng.int prng (Array.length links_a) in
        let cap = 1e8 *. float_of_int (1 + Prng.int prng 100) in
        Fabric.set_link_capacity fa links_a.(li) cap;
        Fabric.set_link_capacity fb links_b.(li) cap
      end;
      check_step step)
  done;
  !failure

let differential_prop =
  QCheck.Test.make ~name:"incremental rates = global rates (1e-9, 300 sequences)"
    ~count:300 QCheck.small_int (fun salt ->
      let prng = Prng.create ~seed:(salted salt) in
      match paired_sequence ~ops:40 ~solver_b:Fabric.Global ~compare_logs:false prng with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

(* Determinism, including tie-breaks: replaying a sequence on a second
   incremental fabric reproduces the exact freeze order and rates. *)
let tie_break_determinism_prop =
  QCheck.Test.make ~name:"incremental freeze order is deterministic" ~count:100
    QCheck.small_int (fun salt ->
      let prng = Prng.create ~seed:(salted salt) in
      match
        paired_sequence ~ops:40 ~solver_b:Fabric.Incremental ~compare_logs:true prng
      with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

(* The two-equal-links regression: when several links tie at the minimum
   fair share, the solver must freeze them in link-id order — the
   lexicographic (share, id) tie-break — under both solvers. *)
let test_tie_break_two_equal_links () =
  List.iter
    (fun solver ->
      let tag =
        match solver with Fabric.Incremental -> "incremental" | Fabric.Global -> "global"
      in
      (* One flow over two equally contended links: the bottleneck is the
         lower link id. *)
      let sim = Sim.create () in
      let fab = Fabric.create ~solver sim in
      let a = Fabric.add_link fab ~name:"a" ~capacity:10.0 in
      let b = Fabric.add_link fab ~name:"b" ~capacity:10.0 in
      let f = Fabric.start fab ~route:[ a; b ] ~bytes:1e12 in
      Alcotest.(check (list int))
        (tag ^ ": single flow freezes the lower-id link")
        [ Fabric.link_id a ]
        (Fabric.last_bottlenecks fab);
      Alcotest.(check (float 0.0)) (tag ^ ": flow at capacity") 10.0 (Fabric.rate f);
      (* Two flows through a shared wide link, private links tied at the
         minimum share: one re-rate must freeze a then b. *)
      let sim = Sim.create () in
      let fab = Fabric.create ~solver sim in
      let a = Fabric.add_link fab ~name:"a" ~capacity:10.0 in
      let b = Fabric.add_link fab ~name:"b" ~capacity:10.0 in
      let shared = Fabric.add_link fab ~name:"shared" ~capacity:1000.0 in
      let f1 = Fabric.start fab ~route:[ a; shared ] ~bytes:1e12 in
      let f2 = Fabric.start fab ~route:[ b; shared ] ~bytes:1e12 in
      Alcotest.(check (list int))
        (tag ^ ": equal links freeze in id order")
        [ Fabric.link_id a; Fabric.link_id b ]
        (Fabric.last_bottlenecks fab);
      Alcotest.(check (float 0.0)) (tag ^ ": f1 fair share") 10.0 (Fabric.rate f1);
      Alcotest.(check (float 0.0)) (tag ^ ": f2 fair share") 10.0 (Fabric.rate f2))
    [ Fabric.Incremental; Fabric.Global ]

(* ------------------------------------------------------------------ *)
(* Cluster VM index vs a list-scan oracle *)

let test_cluster_index_oracle () =
  let prng = Prng.create ~seed:(salted 23) in
  let t =
    ok_exn
      (Topology.v ~pods:2 ~racks_per_pod:2 ~hosts_per_rack:4 ~ib_pods:1 ~mem_gb:8.0 ())
  in
  let sim = Sim.create () in
  let cluster = Cluster.create sim ~topology:t () in
  let nodes = Array.of_list (Cluster.nodes cluster) in
  let n = Array.length nodes in
  let oracle : (string, int * float) Hashtbl.t = Hashtbl.create 64 in
  let names = Array.init 48 (Printf.sprintf "vm%02d") in
  for _ = 1 to 1000 do
    let name = names.(Prng.int prng (Array.length names)) in
    match Prng.int prng 3 with
    | 0 ->
      let node = Prng.int prng n in
      let bytes = float_of_int (1 + Prng.int prng 4) *. 1e9 in
      Cluster.register_vm cluster ~name ~node ~bytes;
      Hashtbl.replace oracle name (node, bytes)
    | 1 -> (
      match Hashtbl.find_opt oracle name with
      | Some (_, bytes) ->
        let node = Prng.int prng n in
        Cluster.move_vm cluster ~name ~node;
        Hashtbl.replace oracle name (node, bytes)
      | None -> ())
    | _ ->
      Cluster.unregister_vm cluster ~name;
      Hashtbl.remove oracle name
  done;
  Alcotest.(check int) "vm count" (Hashtbl.length oracle) (Cluster.vm_count cluster);
  Array.iter
    (fun (node : Node.t) ->
      let on_node f init =
        Hashtbl.fold
          (fun nm (nd, b) acc -> if nd = node.Node.id then f nm b acc else acc)
          oracle init
      in
      Alcotest.(check (list string))
        (node.Node.name ^ " residents")
        (List.sort compare (on_node (fun nm _ acc -> nm :: acc) []))
        (Cluster.vms_on cluster node);
      Alcotest.(check (float 1e3))
        (node.Node.name ^ " used bytes")
        (on_node (fun _ b acc -> acc +. b) 0.0)
        (Cluster.node_used_bytes cluster node))
    nodes;
  Hashtbl.iter
    (fun name (node, _) ->
      match Cluster.vm_node cluster ~name with
      | Some nd -> Alcotest.(check int) (name ^ " node") node nd.Node.id
      | None -> Alcotest.failf "%s missing from the index" name)
    oracle;
  let want = 6.0e9 in
  Alcotest.(check (list string))
    "nodes_with_free matches a scan"
    (Array.to_list nodes
    |> List.filter (fun (nd : Node.t) ->
           nd.Node.mem_bytes
           -. Hashtbl.fold
                (fun _ (d, b) acc -> if d = nd.Node.id then acc +. b else acc)
                oracle 0.0
           >= want)
    |> List.map (fun (nd : Node.t) -> nd.Node.name))
    (List.map
       (fun (nd : Node.t) -> nd.Node.name)
       (Cluster.nodes_with_free cluster ~bytes:want))

(* ------------------------------------------------------------------ *)
(* Scale regression: the 1000-VM evacuation must stay cheap to simulate *)

let test_evacuation_budget () =
  let open Ninja_experiments in
  let topo = Exp_scalability.dc_topology ~pods:4 ~racks:4 ~hosts:16 ~mem_gb:48.0 in
  let ctx = Run_ctx.make ~seed:env_seed () in
  let c0 = Sys.time () in
  let e =
    Exp_scalability.evacuate ctx ~topo ~vms:1000 ~vm_gb:0.5
      ~window:Exp_scalability.default_window
  in
  let cpu = Sys.time () -. c0 in
  Alcotest.(check int) "fleet size" 1000 e.Exp_scalability.e_vms;
  Alcotest.(check int) "topology size" 256 e.Exp_scalability.e_hosts;
  if e.Exp_scalability.e_makespan <= 0.0 then Alcotest.fail "evacuation did not run";
  (* Each VM ships at least its resident set (0.25 GB). *)
  if e.Exp_scalability.e_moved_gb < 200.0 then
    Alcotest.failf "only %.1f GB moved" e.Exp_scalability.e_moved_gb;
  (* The incremental solver keeps a 1000-VM evacuation within seconds of
     host time; the global reference alone would blow this budget long
     before CI noise does. *)
  if cpu > 30.0 then Alcotest.failf "1000-VM evacuation took %.1f CPU seconds" cpu

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "ninja_topology"
    [
      ( "topology",
        Alcotest.test_case "validation and parse errors" `Quick test_validate_and_parse_errors
        :: Alcotest.test_case "same seed, identical artifacts" `Quick test_same_seed_identical
        :: Alcotest.test_case "spec lowering and pod homogeneity" `Quick test_spec_lowering
        :: Alcotest.test_case "reachability" `Quick test_reachability
        :: Alcotest.test_case "oversubscription capacities" `Quick
             test_oversubscription_capacities
        :: Alcotest.test_case "seeded placement" `Quick test_place
        :: Alcotest.test_case "fuzz hook" `Quick test_fuzz_hook
        :: qsuite [ roundtrip_prop; shrink_prop ] );
      ( "differential",
        Alcotest.test_case "two equal links tie-break" `Quick test_tie_break_two_equal_links
        :: qsuite [ differential_prop; tie_break_determinism_prop ] );
      ( "cluster-index",
        [ Alcotest.test_case "index matches oracle under churn" `Quick test_cluster_index_oracle ] );
      ( "scale",
        [ Alcotest.test_case "1000-VM evacuation budget" `Quick test_evacuation_budget ] );
    ]
