(* Datacenter topologies and the incremental Flownet solver, tested four
   ways: the topology generator itself (grammar, lowering, reachability,
   oversubscription, seeded placement); a differential suite racing the
   incremental max-min solver against a from-scratch reference
   (Engine_oracle.Maxmin) over random join/leave sequences; the
   cluster's VM-placement index against a list-scan oracle under
   randomized churn; and the 1000-VM evacuation study under a host-CPU
   budget.

   Seeded from NINJA_TEST_SEED (default 1, through Qsuite) so the CI seed
   matrix (1/7/1337) exercises distinct random streams, and two runs at
   one seed test the same cases. *)

open Ninja_engine
open Ninja_flownet
open Ninja_hardware
module Maxmin = Engine_oracle.Maxmin

let salted salt = Int64.add Qsuite.seed (Int64.of_int salt)

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
  QCheck.Test.make ~name:"topology text form round-trips" ~count:200 QCheck.int (fun seed ->
      let prng = Prng.create ~seed:(Int64.of_int seed) in
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
    QCheck.int (fun seed ->
      let prng = Prng.create ~seed:(Int64.of_int seed) in
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
  let ctx = Run_ctx.make ~seed:Qsuite.seed () in
  let summary = Fuzz.campaign ctx ~n:3 ~topology:topo () in
  Alcotest.(check int) "forced-topology campaign total" 3 summary.Fuzz.total;
  Alcotest.(check int) "forced-topology campaign green" 3 summary.Fuzz.passed;
  let drawn = Fuzz.generate ~seed:(salted 19) ~n:40 in
  let with_topo =
    List.length (List.filter (fun sc -> sc.Scenario.topo <> None) drawn)
  in
  if with_topo = 0 then Alcotest.fail "no generated scenario carried a topology"

(* ------------------------------------------------------------------ *)
(* Differential: the incremental solver against the max-min oracle *)

(* A live flow: its link ids, and the flow on each fabric. *)
type live = { route : int list; flows : Fabric.flow array }

(* The reference flow-conservation check: sweep every live link and keep
   those whose flows exceed its capacity (the checker's tolerance). *)
let sweep fabric =
  List.filter
    (fun l ->
      Fabric.link_utilization fabric l > (Fabric.link_capacity l *. (1.0 +. 1e-6)) +. 1.0)
    (Fabric.links fabric)

(* What the checker and the flow monitor rely on instead of the sweep:
   between two drains of a reader, every link whose utilisation changed
   was re-solved and so drained. [watch_changes ~every fabric links] takes
   a reader of the fabric and returns a step check that drains it every
   [every]-th step and names the first link that changed since its last
   drain but was not drained. *)
let watch_changes ~every fabric links =
  let reader = Fabric.reader fabric in
  let state () = Array.map (Fabric.link_utilization fabric) links in
  let drained = Hashtbl.create 64 in
  Fabric.drain reader ignore;
  let prev = ref (state ()) in
  let steps = ref 0 in
  fun () ->
    incr steps;
    if !steps mod every <> 0 then None
    else begin
      Hashtbl.reset drained;
      Fabric.drain reader (fun l -> Hashtbl.replace drained (Fabric.link_id l) ());
      let now = state () in
      let missed = ref None in
      Array.iteri
        (fun i l ->
          let u0 = !prev.(i) and u1 = now.(i) in
          if
            !missed = None
            && (not (Float.equal u0 u1))
            && not (Hashtbl.mem drained (Fabric.link_id l))
          then
            missed :=
              Some
                (Printf.sprintf
                   "%s changed (%.17g -> %.17g) but a reader draining every %d step(s) did \
                    not drain it"
                   (Fabric.link_name l) u0 u1 every))
        links;
      prev := now;
      !missed
    end

(* After every operation a fabric must have reported every link that
   changed to each of two readers, one draining after every operation and
   one after every third, and may hold no over-capacity link. *)
let soundness fabric =
  let links = Array.of_list (Fabric.links fabric) in
  let each = watch_changes ~every:1 fabric links in
  let third = watch_changes ~every:3 fabric links in
  fun () ->
    match (each (), third (), sweep fabric) with
    | Some msg, _, _ | None, Some msg, _ -> Some msg
    | None, None, l :: _ -> Some (Fabric.link_name l ^ " over capacity")
    | None, None, [] -> None

(* Each link's utilisation, as the fabric reports it, against the sum of
   the rates of the live flows crossing it (summed in another order, so
   within 1e-9 relative). *)
let utilizations fabric links live =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let r = Fabric.rate f.flows.(0) in
      List.iter
        (fun id ->
          Hashtbl.replace sums id (r +. Option.value (Hashtbl.find_opt sums id) ~default:0.0))
        f.route)
    live;
  List.find_map
    (fun l ->
      let got = Fabric.link_utilization fabric l in
      let want = Option.value (Hashtbl.find_opt sums (Fabric.link_id l)) ~default:0.0 in
      if Float.abs (got -. want) <= 1e-9 *. Float.max (Float.abs got) (Float.abs want) then None
      else
        Some
          (Printf.sprintf "%s utilisation %.17g, but its flows sum to %.17g"
             (Fabric.link_name l) got want))
    links


(* Drive one random join/leave sequence over [copies] clusters built from
   the same generated topology, the same operation on each. [checker
   fabrics] is called once, before the first operation; the check it
   returns is called with the live flows, oldest first, after every
   operation. Flows carry far more bytes than could ever complete (the
   simulations never run), so the sequence exercises pure re-rating. *)
let sequence ~ops ~copies ~checker prng =
  let topo = Topology.gen prng in
  let clusters = Array.init copies (fun _ -> Cluster.create (Sim.create ()) ~topology:topo ()) in
  let fabrics = Array.map Cluster.fabric clusters in
  let nodes = Array.map (fun c -> Array.of_list (Cluster.nodes c)) clusters in
  let check = checker fabrics in
  let n = Array.length nodes.(0) in
  let live = ref [] in
  let rec step i =
    if i > ops then None
    else begin
      if Prng.int prng 85 < 55 || !live = [] then begin
        let s = Prng.int prng n and d = Prng.int prng n in
        let want_ib = Node.has_ib nodes.(0).(s) && Node.has_ib nodes.(0).(d) && Prng.bool prng in
        let route k =
          let src = nodes.(k).(s) and dst = nodes.(k).(d) in
          let attempt net = Cluster.route_opt clusters.(k) ~net ~src ~dst in
          match (if want_ib then attempt Cluster.Ib else None) with
          | Some r -> r
          | None -> ( match attempt Cluster.Eth with Some r -> r | None -> assert false)
        in
        let bytes = 1e12 *. float_of_int (1 + Prng.int prng 8) in
        let routes = Array.init copies route in
        let flows = Array.mapi (fun k route -> Fabric.start fabrics.(k) ~route ~bytes) routes in
        live := { route = List.map Fabric.link_id routes.(0); flows } :: !live
      end
      else begin
        let victim = Prng.int prng (List.length !live) in
        let gone = List.nth !live victim in
        live := List.filteri (fun j _ -> j <> victim) !live;
        Array.iteri (fun k fabric -> Fabric.cancel fabric gone.flows.(k)) fabrics
      end;
      match check (List.rev !live) with
      | Some msg -> Some (Printf.sprintf "step %d: %s" i msg)
      | None -> step (i + 1)
    end
  in
  step 1

let rec subsequence xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' -> if x = y then subsequence xs' ys' else subsequence xs ys'

let ids l = String.concat "," (List.map string_of_int l)

(* After every operation each live flow's rate must equal, bit for bit,
   the oracle's from-scratch solve over every live flow. The re-rate
   covers only the components the operation touched, so its freeze log
   must be the oracle's freeze order restricted to those components'
   links: a subsequence of it. Every link's utilisation must be its flows'
   sum, and both readers must have seen every change. *)
let against_oracle fabrics =
  let fabric = fabrics.(0) in
  let by_id = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace by_id (Fabric.link_id l) l) (Fabric.links fabric);
  let capacity id = Fabric.link_capacity (Hashtbl.find by_id id) in
  let sound = soundness fabric in
  fun live ->
    let oracle = Maxmin.solve ~capacity (Array.of_list (List.map (fun f -> f.route) live)) in
    let rates =
      List.combine
        (List.map (fun f -> Fabric.rate f.flows.(0)) live)
        (Array.to_list oracle.Maxmin.rates)
    in
    let log = Fabric.last_bottlenecks fabric in
    match List.find_opt (fun (got, want) -> not (Float.equal got want)) rates with
    | Some (got, want) -> Some (Printf.sprintf "incremental %.17g vs oracle %.17g" got want)
    | None when not (subsequence log oracle.Maxmin.freeze_order) ->
      Some
        (Printf.sprintf "freeze log [%s] is not a subsequence of the oracle's [%s]" (ids log)
           (ids oracle.Maxmin.freeze_order))
    | None -> (
      match utilizations fabric (Fabric.links fabric) live with
      | Some msg -> Some msg
      | None -> sound ())

let differential_prop =
  QCheck.Test.make ~name:"incremental rates = oracle rates (exact, 300 sequences)" ~count:300
    QCheck.int (fun seed ->
      let prng = Prng.create ~seed:(Int64.of_int seed) in
      match sequence ~ops:40 ~copies:1 ~checker:against_oracle prng with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

(* Determinism, including tie-breaks: replaying a sequence on a second
   incremental fabric reproduces the exact freeze order and rates. *)
let replayed fabrics =
  let sound = Array.map soundness fabrics in
  fun live ->
    let differs f = not (Float.equal (Fabric.rate f.flows.(0)) (Fabric.rate f.flows.(1))) in
    if List.exists differs live then Some "rates diverge"
    else if Fabric.last_bottlenecks fabrics.(0) <> Fabric.last_bottlenecks fabrics.(1) then
      Some "freeze logs diverge"
    else
      match (sound.(0) (), sound.(1) ()) with
      | Some msg, _ | None, Some msg -> Some msg
      | None, None -> None

let tie_break_determinism_prop =
  QCheck.Test.make ~name:"incremental freeze order is deterministic" ~count:100 QCheck.int
    (fun seed ->
      let prng = Prng.create ~seed:(Int64.of_int seed) in
      match sequence ~ops:40 ~copies:2 ~checker:replayed prng with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "%s" msg)

(* The two-equal-links regression: when several links tie at the minimum
   fair share, the solver must freeze them in link-id order — the
   lexicographic (share, id) tie-break — and so must the oracle. *)
let test_tie_break_two_equal_links () =
  let freeze_order capacity routes =
    (Maxmin.solve ~capacity (Array.of_list (List.map (List.map Fabric.link_id) routes)))
      .Maxmin.freeze_order
  in
  (* One flow over two equally contended links: the bottleneck is the
     lower link id. *)
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let a = Fabric.add_link fab ~name:"a" ~capacity:10.0 in
  let b = Fabric.add_link fab ~name:"b" ~capacity:10.0 in
  let f = Fabric.start fab ~route:[ a; b ] ~bytes:1e12 in
  Alcotest.(check (list int))
    "single flow freezes the lower-id link" [ Fabric.link_id a ] (Fabric.last_bottlenecks fab);
  Alcotest.(check (float 0.0)) "flow at capacity" 10.0 (Fabric.rate f);
  Alcotest.(check (list int))
    "oracle: single flow freezes the lower-id link" [ Fabric.link_id a ]
    (freeze_order (fun _ -> 10.0) [ [ b; a ] ]);
  (* Two flows through a shared wide link, private links tied at the
     minimum share: one re-rate must freeze a then b. *)
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let a = Fabric.add_link fab ~name:"a" ~capacity:10.0 in
  let b = Fabric.add_link fab ~name:"b" ~capacity:10.0 in
  let shared = Fabric.add_link fab ~name:"shared" ~capacity:1000.0 in
  let f1 = Fabric.start fab ~route:[ a; shared ] ~bytes:1e12 in
  let f2 = Fabric.start fab ~route:[ b; shared ] ~bytes:1e12 in
  Alcotest.(check (list int))
    "equal links freeze in id order" [ Fabric.link_id a; Fabric.link_id b ]
    (Fabric.last_bottlenecks fab);
  Alcotest.(check (float 0.0)) "f1 fair share" 10.0 (Fabric.rate f1);
  Alcotest.(check (float 0.0)) "f2 fair share" 10.0 (Fabric.rate f2);
  let capacity id = if id = Fabric.link_id shared then 1000.0 else 10.0 in
  Alcotest.(check (list int))
    "oracle: equal links freeze in id order" [ Fabric.link_id a; Fabric.link_id b ]
    (freeze_order capacity [ [ shared; b ]; [ shared; a ] ])

(* The change feed's bookkeeping: a new reader starts with every live
   link pending; a pending link removed stays with the readers older than
   it and leaves the newer ones; a flow that starts and is cancelled
   makes its links pending again; a released reader drains nothing and
   frees its place, of which a fabric has 62. *)
let test_feed_readers () =
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let drained r =
    let names = ref [] in
    Fabric.drain r (fun l -> names := Fabric.link_name l :: !names);
    List.sort compare !names
  in
  let a = Fabric.add_link fab ~name:"a" ~capacity:10.0 in
  let older = Fabric.reader fab in
  let p = Fabric.add_link fab ~name:"p" ~capacity:10.0 in
  let younger = Fabric.reader fab in
  Alcotest.(check (list string)) "the older reader starts with a" [ "a" ] (drained older);
  Alcotest.(check (list string)) "the younger with a and p" [ "a"; "p" ] (drained younger);
  Alcotest.(check (list string)) "a drain empties only its own set" [] (drained younger);
  Fabric.cancel fab (Fabric.start fab ~route:[ a; p ] ~bytes:1e12);
  Fabric.remove_link fab p;
  Alcotest.(check (list string)) "p is newer than the older reader" [ "a" ] (drained older);
  Alcotest.(check (list string)) "and older than the younger" [ "a"; "p" ] (drained younger);
  Fabric.cancel fab (Fabric.start fab ~route:[ a ] ~bytes:1e12);
  Fabric.release younger;
  Fabric.release younger;
  Alcotest.(check (list string)) "a released reader drains nothing" [] (drained younger);
  Alcotest.(check (list string)) "the other still sees a" [ "a" ] (drained older);
  Alcotest.(check int) "one reader left" 1 (Fabric.readers fab);
  let more = List.init 61 (fun _ -> Fabric.reader fab) in
  (match Fabric.reader fab with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a 63rd reader was accepted");
  Fabric.release (List.hd more);
  ignore (Fabric.reader fab);
  Alcotest.(check int) "62 readers" 62 (Fabric.readers fab)

(* ------------------------------------------------------------------ *)
(* Cluster VM index vs a list-scan oracle *)

(* Registrations (a name already registered is re-registered: the latest
   wins) and moves, checked against a name -> (node, bytes) table. *)
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
    let node = Prng.int prng n in
    match (Prng.bool prng, Hashtbl.find_opt oracle name) with
    | true, Some (_, bytes) ->
      Cluster.move_vm cluster ~name ~node;
      Hashtbl.replace oracle name (node, bytes)
    | _ ->
      let bytes = float_of_int (1 + Prng.int prng 4) *. 1e9 in
      Cluster.register_vm cluster ~name ~node ~bytes;
      Hashtbl.replace oracle name (node, bytes)
  done;
  let free (node : Node.t) =
    Hashtbl.fold
      (fun _ (d, b) acc -> if d = node.Node.id then acc -. b else acc)
      oracle node.Node.mem_bytes
  in
  Array.iter
    (fun (node : Node.t) ->
      Alcotest.(check (float 1e3))
        (node.Node.name ^ " free bytes") (free node) (Cluster.node_free_bytes cluster node))
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
    |> List.filter (fun nd -> free nd >= want)
    |> List.map (fun (nd : Node.t) -> nd.Node.name))
    (List.map
       (fun (nd : Node.t) -> nd.Node.name)
       (Cluster.nodes_with_free cluster ~bytes:want))

(* ------------------------------------------------------------------ *)
(* Scale regression: the 1000-VM evacuation must stay cheap to simulate *)

let test_evacuation_budget () =
  let open Ninja_experiments in
  let topo = Exp_scalability.dc_topology ~pods:4 ~racks:4 ~hosts:16 ~mem_gb:48.0 in
  let ctx = Run_ctx.make ~seed:Qsuite.seed () in
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
     host time; re-solving the whole fabric on every change would blow
     this budget long before CI noise does. *)
  if cpu > 30.0 then Alcotest.failf "1000-VM evacuation took %.1f CPU seconds" cpu

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
        :: Qsuite.tests [ roundtrip_prop; shrink_prop ] );
      ( "differential",
        Alcotest.test_case "two equal links tie-break" `Quick test_tie_break_two_equal_links
        :: Qsuite.tests [ differential_prop; tie_break_determinism_prop ]
        @ [ Alcotest.test_case "change feed readers" `Quick test_feed_readers ] );
      ( "cluster-index",
        [ Alcotest.test_case "index matches oracle under churn" `Quick test_cluster_index_oracle ] );
      ( "scale",
        [ Alcotest.test_case "1000-VM evacuation budget" `Quick test_evacuation_budget ] );
    ]
