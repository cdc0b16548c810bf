(* Tests for the batch migration planner: plan IR, estimator, solver
   strategies and the fiber executor. *)

open Ninja_engine
open Ninja_hardware
open Ninja_vmm
open Ninja_planner

let setup () =
  let sim = Sim.create () in
  let cluster = Cluster.create sim ~spec:Spec.agc () in
  (sim, cluster)

let node cluster name = Cluster.find_node cluster name

let mk_vm cluster ~name ~host =
  Vm.create cluster ~name ~host:(node cluster host) ~vcpus:4
    ~mem_bytes:(Units.gb 4.0) ()

let step_of plan vm =
  List.find (fun (s : Plan.step) -> s.Plan.vm == vm) (Plan.steps plan)

(* ------------------------------------------------------------------ *)
(* Plan IR *)

let test_of_assignment_basic () =
  let _, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let b = mk_vm cluster ~name:"b" ~host:"ib01" in
  let dst_of vm =
    node cluster (if Vm.name vm = "a" then "eth00" else "eth01")
  in
  let plan = Plan.of_assignment cluster ~vms:[ a; b ] ~dst_of () in
  Alcotest.(check int) "two steps" 2 (Plan.length plan);
  Alcotest.(check int) "no conflicts, no edges" 0 (Plan.dep_count plan);
  List.iter
    (fun (s : Plan.step) ->
      Alcotest.(check string) "direct" "direct" (Plan.kind_name s.Plan.kind);
      Alcotest.(check bool) "bytes from footprint" true (s.Plan.bytes > 0.0))
    (Plan.steps plan);
  Alcotest.(check int) "topo covers all" 2 (List.length (Plan.topo_order plan))

let test_stay_put_vm_has_no_step () =
  let _, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let b = mk_vm cluster ~name:"b" ~host:"ib01" in
  let dst_of vm =
    if Vm.name vm = "a" then node cluster "eth00" else Vm.host vm
  in
  let plan = Plan.of_assignment cluster ~vms:[ a; b ] ~dst_of () in
  Alcotest.(check int) "only the mover gets a step" 1 (Plan.length plan);
  Alcotest.(check string) "and it is vm a" "a"
    (Vm.name (List.hd (Plan.steps plan)).Plan.vm)

let test_capacity_conflict_edge () =
  let _, cluster = setup () in
  (* a: ib00 -> ib01 (occupied by b); b: ib01 -> ib02 (free). *)
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let b = mk_vm cluster ~name:"b" ~host:"ib01" in
  let dst_of vm =
    node cluster (if Vm.name vm = "a" then "ib01" else "ib02")
  in
  let plan = Plan.of_assignment cluster ~vms:[ a; b ] ~dst_of () in
  Alcotest.(check int) "one conflict edge" 1 (Plan.dep_count plan);
  let sa = step_of plan a and sb = step_of plan b in
  Alcotest.(check bool) "a waits for b to vacate" true
    (List.memq sb (Plan.deps_of plan sa));
  Alcotest.(check bool) "acyclic" true (Plan.is_acyclic plan);
  match Plan.topo_order plan with
  | [ first; second ] ->
    Alcotest.(check string) "b first" "b" (Vm.name first.Plan.vm);
    Alcotest.(check string) "a second" "a" (Vm.name second.Plan.vm)
  | _ -> Alcotest.fail "expected two steps in topo order"

let test_swap_cycle_staged () =
  let _, cluster = setup () in
  (* a: ib00 -> ib01 and b: ib01 -> ib00 — a 2-cycle; ib02 is free. *)
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let b = mk_vm cluster ~name:"b" ~host:"ib01" in
  let dst_of vm =
    node cluster (if Vm.name vm = "a" then "ib01" else "ib00")
  in
  let plan =
    Plan.of_assignment cluster ~vms:[ a; b ]
      ~dst_of
      ~staging:[ node cluster "ib02" ] ()
  in
  Alcotest.(check int) "three steps: direct + stage_out + stage_in" 3
    (Plan.length plan);
  Alcotest.(check bool) "acyclic after staging" true (Plan.is_acyclic plan);
  let kinds =
    Plan.steps plan
    |> List.map (fun (s : Plan.step) -> Plan.kind_name s.Plan.kind)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "kinds" [ "direct"; "stage-in"; "stage-out" ] kinds;
  let stage_out =
    List.find
      (fun (s : Plan.step) -> s.Plan.kind = Plan.Stage_out)
      (Plan.steps plan)
  in
  Alcotest.(check string) "stages through the free node" "ib02"
    stage_out.Plan.dst.Node.name

let test_swap_cycle_no_staging_falls_back () =
  let _, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let b = mk_vm cluster ~name:"b" ~host:"ib01" in
  let dst_of vm =
    node cluster (if Vm.name vm = "a" then "ib01" else "ib00")
  in
  (* No staging pool: the planner must drop an edge rather than emit a
     cyclic (undeadlockable) plan. *)
  let plan = Plan.of_assignment cluster ~vms:[ a; b ] ~dst_of () in
  Alcotest.(check int) "two direct steps" 2 (Plan.length plan);
  Alcotest.(check bool) "still acyclic" true (Plan.is_acyclic plan);
  Alcotest.(check bool) "at most one edge survives" true (Plan.dep_count plan <= 1)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_add_dep_validation () =
  let plan = Plan.create () in
  let _, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let s =
    Plan.add_step plan ~vm:a ~src:(node cluster "ib00") ~dst:(node cluster "eth00")
      ~bytes:1e9 ()
  in
  Alcotest.check_raises "self edge rejected"
    (Invalid_argument "Plan.add_dep: self-dependency") (fun () ->
      Plan.add_dep plan ~before:s ~after:s)

(* ------------------------------------------------------------------ *)
(* Estimator *)

let test_estimator_sanity () =
  let _, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let plan =
    Plan.of_assignment cluster ~vms:[ a ]
      ~dst_of:(fun _ -> node cluster "eth00")
      ()
  in
  let s = List.hd (Plan.steps plan) in
  let e = Estimator.estimate cluster s in
  Alcotest.(check bool) "wire bytes positive" true (e.Estimator.wire_bytes > 0.0);
  Alcotest.(check bool) "rate positive" true (e.Estimator.rate > 0.0);
  Alcotest.(check bool) "rate capped by sender" true
    (e.Estimator.rate <= Estimator.sender_demand +. 1.0);
  Alcotest.(check bool) "duration positive" true
    (Time.to_sec_f e.Estimator.duration > 0.0);
  Alcotest.(check bool) "route is non-empty" true
    (Estimator.route cluster s <> [])

let test_estimator_contention () =
  let _, cluster = setup () in
  Cluster.set_inter_rack cluster ~rack_a:0 ~rack_b:1 ~capacity:(Units.gbps 10.0)
    ~latency:(Time.us 50);
  let vms =
    List.init 3 (fun i ->
        mk_vm cluster ~name:(Printf.sprintf "v%d" i)
          ~host:(Printf.sprintf "ib%02d" i))
  in
  let dst_of =
    let table =
      List.mapi (fun i vm -> (vm, node cluster (Printf.sprintf "eth%02d" i))) vms
    in
    fun vm -> List.assq vm table
  in
  let plan = Plan.of_assignment cluster ~vms ~dst_of () in
  match Estimator.contention cluster plan with
  | [] -> Alcotest.fail "expected contended links"
  | (top, load) :: rest ->
    (* Every cross-rack step crosses the shared uplink, so the most
       contended link carries all three footprints. *)
    let total =
      List.fold_left (fun acc (s : Plan.step) -> acc +. s.Plan.bytes) 0.0
        (Plan.steps plan)
    in
    Alcotest.(check (float 1e6)) "top link carries the whole batch" total load;
    Alcotest.(check bool) "sorted descending" true
      (List.for_all (fun (_, l) -> l <= load) rest);
    ignore top

(* ------------------------------------------------------------------ *)
(* Solver *)

let evacuation_scenario ?(n = 4) ?(uplink_gbps = 10.0) () =
  let sim, cluster = setup () in
  Cluster.set_inter_rack cluster ~rack_a:0 ~rack_b:1
    ~capacity:(Units.gbps uplink_gbps) ~latency:(Time.us 50);
  let vms =
    List.init n (fun i ->
        mk_vm cluster ~name:(Printf.sprintf "v%d" i)
          ~host:(Printf.sprintf "ib%02d" i))
  in
  let table =
    List.mapi (fun i vm -> (vm, node cluster (Printf.sprintf "eth%02d" i))) vms
  in
  let dst_of vm = List.assq vm table in
  (sim, cluster, vms, dst_of)

let test_sequential_chains_everything () =
  let _, cluster, vms, dst_of = evacuation_scenario () in
  let plan = Plan.of_assignment cluster ~vms ~dst_of () in
  let plan = Solver.solve Solver.Sequential cluster plan in
  Alcotest.(check int) "n-1 chain edges" (List.length vms - 1) (Plan.dep_count plan);
  Alcotest.(check bool) "acyclic" true (Plan.is_acyclic plan);
  (* Exactly one step has no dependency; every other step has exactly one. *)
  let roots =
    List.filter (fun s -> Plan.deps_of plan s = []) (Plan.steps plan)
  in
  Alcotest.(check int) "single root" 1 (List.length roots)

let test_grouped_waves_respect_capacity () =
  let _, cluster, vms, dst_of = evacuation_scenario ~n:4 () in
  let plan = Plan.of_assignment cluster ~vms ~dst_of () in
  let waves = Solver.grouped_waves cluster plan in
  Alcotest.(check bool) "more than one wave on a thin uplink" true
    (List.length waves > 1);
  Alcotest.(check int) "waves cover every step" (Plan.length plan)
    (List.fold_left (fun acc w -> acc + List.length w) 0 waves);
  (* No wave oversubscribes any fabric link: the summed standalone rates
     of the members sharing a link stay within its capacity. *)
  List.iter
    (fun wave ->
      let usage = Hashtbl.create 8 in
      List.iter
        (fun step ->
          let rate = (Estimator.estimate cluster step).Estimator.rate in
          List.iter
            (fun link ->
              let id = Ninja_flownet.Fabric.link_id link in
              let prev =
                Option.value (Hashtbl.find_opt usage id) ~default:(link, 0.0)
              in
              Hashtbl.replace usage id (link, snd prev +. rate))
            (Estimator.route cluster step))
        wave;
      Hashtbl.iter
        (fun _ (link, used) ->
          Alcotest.(check bool)
            (Printf.sprintf "link %s not oversubscribed"
               (Ninja_flownet.Fabric.link_name link))
            true
            (used <= Ninja_flownet.Fabric.link_capacity link +. 1e-3))
        usage)
    waves

let test_solver_of_string () =
  Alcotest.(check bool) "grouped parses" true
    (Solver.of_string "grouped" = Ok Solver.Grouped);
  Alcotest.(check bool) "seq alias parses" true
    (Solver.of_string "seq" = Ok Solver.Sequential);
  Alcotest.(check bool) "destination-swap alias parses" true
    (Solver.of_string "destination-swap" = Ok Solver.Swap);
  Alcotest.(check bool) "lookup is case/space insensitive" true
    (Solver.of_string "  GROUPED " = Ok Solver.Grouped);
  match Solver.of_string "fastest" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error msg ->
    (* The error enumerates the strategy names. *)
    List.iter
      (fun name ->
        Alcotest.(check bool) ("error lists " ^ name) true (contains msg name))
      [ "sequential"; "grouped"; "swap" ]

let test_solver_closed_set () =
  (* The strategy set is closed: [all] fixes the order scenario
     generators draw from, every alias resolves, and [help] lists the
     canonical names. *)
  Alcotest.(check (list string)) "names of all, in order"
    [ "sequential"; "grouped"; "swap" ]
    (List.map Solver.name (Solver.all ()));
  List.iter
    (fun (text, expected) ->
      Alcotest.(check bool) (text ^ " resolves") true (Solver.of_string text = Ok expected))
    [
      ("sequential", Solver.Sequential); ("seq", Solver.Sequential);
      ("grouped", Solver.Grouped); ("group", Solver.Grouped);
      ("swap", Solver.Swap); ("destination-swap", Solver.Swap);
    ];
  Alcotest.(check string) "help" "sequential|grouped|swap" (Solver.help ())

(* A leaf-spine datacenter whose Ethernet pod has two racks: the swap
   strategy's playground, since same-fabric-class destinations with
   different route costs exist. *)
let leaf_spine_cluster () =
  let sim = Sim.create () in
  let topo =
    match
      Topology.v ~tier:Topology.Leaf_spine ~pods:2 ~racks_per_pod:2
        ~hosts_per_rack:4 ~ib_pods:1 ~oversub:4.0 ~mem_gb:32.0 ~seed:5L ()
    with
    | Ok t -> t
    | Error e -> Alcotest.fail ("topology: " ^ e)
  in
  (sim, Cluster.create sim ~topology:topo ())

let test_swap_lowers_communication_cost () =
  let _, cluster = leaf_spine_cluster () in
  let host ~pod ~rack ~host =
    node cluster (Topology.host_name ~pod ~rack ~host)
  in
  let vms =
    List.init 4 (fun i ->
        Vm.create cluster
          ~name:(Printf.sprintf "v%d" i)
          ~host:(host ~pod:0 ~rack:0 ~host:i)
          ~vcpus:4 ~mem_bytes:(Units.gb 4.0) ())
  in
  (* Both elephant pairs (v0,v1) and (v2,v3) land split across the two
     Ethernet racks; exchanging v1 and v2's destinations co-racks both
     pairs, so exactly that swap pays off. *)
  let dst_of vm =
    match Vm.name vm with
    | "v0" -> host ~pod:1 ~rack:0 ~host:0
    | "v1" -> host ~pod:1 ~rack:1 ~host:0
    | "v2" -> host ~pod:1 ~rack:0 ~host:1
    | _ -> host ~pod:1 ~rack:1 ~host:1
  in
  let traffic = [ ("v0", "v1", 1e8); ("v2", "v3", 1e8) ] in
  let plan = Plan.of_assignment cluster ~vms ~dst_of () in
  let env = Cost_model.env cluster ~traffic () in
  let before =
    Cost_model.placement_cost env ~lookup:(Cost_model.plan_placement env plan)
  in
  let plan' = Solver.solve Solver.Swap cluster ~traffic plan in
  Alcotest.(check bool) "rewritten plan acyclic" true (Plan.is_acyclic plan');
  Alcotest.(check int) "still one step per VM" (Plan.length plan)
    (Plan.length plan');
  let after =
    Cost_model.placement_cost env ~lookup:(Cost_model.plan_placement env plan')
  in
  Alcotest.(check bool)
    (Printf.sprintf "communication cost drops (%.6f -> %.6f)" before after)
    true (after < before);
  (* Swapping permutes destinations among the movers — it never invents
     or drops a slot. *)
  let slots p =
    Plan.steps p
    |> List.map (fun (s : Plan.step) -> s.Plan.dst.Node.name)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "destination multiset preserved" (slots plan)
    (slots plan')

let test_swap_never_crosses_fabric_class () =
  (* Pinned regression (the PR-4 cross-fabric reroute family): however
     large the communication gain, the swap solver must not exchange an
     InfiniBand destination with an Ethernet one. *)
  let _, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let b = mk_vm cluster ~name:"b" ~host:"ib02" in
  let c = mk_vm cluster ~name:"c" ~host:"eth01" in
  ignore c;
  let dst_of vm = node cluster (if Vm.name vm = "a" then "ib01" else "eth00") in
  (* An enormous elephant a<->c pulls a toward the Ethernet rack, and b's
     slot over there is the only candidate exchange. *)
  let traffic = [ ("a", "c", 1e9) ] in
  let plan = Plan.of_assignment cluster ~vms:[ a; b ] ~dst_of () in
  let plan' = Solver.solve Solver.Swap cluster ~traffic plan in
  let dst name =
    (List.find
       (fun (s : Plan.step) -> Vm.name s.Plan.vm = name)
       (Plan.steps plan'))
      .Plan.dst.Node.name
  in
  Alcotest.(check string) "a keeps its InfiniBand destination" "ib01" (dst "a");
  Alcotest.(check string) "b keeps its Ethernet destination" "eth00" (dst "b")

(* Pinned regression: a node pair's communication cost is directional.
   Under one 1 TB flow p1r0h00 -> p1r1h00 the route that way crosses the
   flow's loaded tx, leaf-uplink, leaf-downlink and rx links and the route
   back crosses none of them, so demand from v0 to v1 costs far more with
   v0 on p1r0h00 and v1 on p1r1h00 than the other way round. Both VMs
   leave one host with equal footprints, so exchanging their destinations
   costs no migration time: only a solver that prices each direction sees
   the saving. *)
let test_swap_prices_each_direction () =
  let _, cluster = leaf_spine_cluster () in
  let host ~pod ~rack ~host = node cluster (Topology.host_name ~pod ~rack ~host) in
  let sender = host ~pod:1 ~rack:0 ~host:0 and receiver = host ~pod:1 ~rack:1 ~host:0 in
  (match Cluster.route_opt cluster ~net:Cluster.Eth ~src:sender ~dst:receiver with
  | Some route ->
    ignore (Ninja_flownet.Fabric.start (Cluster.fabric cluster) ~route ~bytes:1e12)
  | None -> Alcotest.fail "no route");
  let env = Cost_model.env cluster () in
  Alcotest.(check bool) "the flow's direction costs more" true
    (Cost_model.pair_cost env sender receiver
    > 10.0 *. Cost_model.pair_cost env receiver sender);
  let vms =
    List.init 2 (fun i ->
        Vm.create cluster
          ~name:(Printf.sprintf "v%d" i)
          ~host:(host ~pod:0 ~rack:0 ~host:0)
          ~vcpus:4 ~mem_bytes:(Units.gb 4.0) ())
  in
  let dst_of vm = if Vm.name vm = "v0" then sender else receiver in
  let plan = Plan.of_assignment cluster ~vms ~dst_of () in
  let plan' = Solver.solve Solver.Swap cluster ~traffic:[ ("v0", "v1", 1e8) ] plan in
  let dst name =
    (List.find (fun (s : Plan.step) -> Vm.name s.Plan.vm = name) (Plan.steps plan'))
      .Plan.dst.Node.name
  in
  Alcotest.(check string) "v0 takes the receiving host" receiver.Node.name (dst "v0");
  Alcotest.(check string) "v1 takes the sending host" sender.Node.name (dst "v1")

(* The reference batch hill climb: each pass prices every pair of direct
   steps from scratch — the whole matrix filtered for the pair's entries,
   their endpoints resolved through the live proposal or the unsolved
   plan's placement, each direction of a node pair and all four migrations
   priced afresh — and applies the first largest gain above 1e-9. Returns
   the final placement, and the swaps and passes a climb that swapped
   reports. Alongside, a [Swap_price] table over the same movers follows
   every exchange and must price every pair of every pass bit for bit. *)
let oracle_hill_climb env plan =
  let directs =
    Array.of_list
      (List.filter (fun (s : Plan.step) -> s.Plan.kind = Plan.Direct) (Plan.steps plan))
  in
  let n = Array.length directs in
  let proposal = Array.map (fun (s : Plan.step) -> s.Plan.dst) directs in
  let base = Cost_model.plan_placement env plan in
  let mover name =
    let found = ref None in
    Array.iteri
      (fun i (s : Plan.step) -> if Vm.name s.Plan.vm = name then found := Some i)
      directs;
    !found
  in
  let place name = match mover name with Some i -> Some proposal.(i) | None -> base name in
  let prices =
    Swap_price.make env ~place:base
      (Array.map
         (fun (s : Plan.step) ->
           {
             Swap_price.vm = s.Plan.vm;
             src = s.Plan.src;
             host = s.Plan.dst;
             bytes = Some s.Plan.bytes;
           })
         directs)
  in
  let gain i j =
    let vi = Vm.name directs.(i).Plan.vm and vj = Vm.name directs.(j).Plan.vm in
    let di = proposal.(i) and dj = proposal.(j) in
    let swapped name =
      if name = vi then Some dj else if name = vj then Some di else place name
    in
    let incident =
      List.filter
        (fun (x, y, _) -> x = vi || y = vi || x = vj || y = vj)
        env.Cost_model.traffic
    in
    let cost lookup =
      List.fold_left
        (fun acc (x, y, rate) ->
          match (lookup x, lookup y) with
          | Some nx, Some ny -> acc +. (rate *. Cost_model.pair_cost env nx ny)
          | _ -> acc)
        0.0 incident
    in
    let mig i dst =
      let s = directs.(i) in
      Cost_model.move_seconds env ~vm:s.Plan.vm ~src:s.Plan.src ~dst ~bytes:s.Plan.bytes ()
    in
    (Cost_model.default_horizon *. (cost place -. cost swapped))
    -. (mig i dj +. mig j di -. mig i di -. mig j dj)
  in
  let swaps = ref 0 and passes = ref 0 and continue_ = ref (n >= 2) in
  while !continue_ && !passes < (4 * n) + 16 do
    incr passes;
    let best = ref None and best_gain = ref 1e-9 in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        let di = proposal.(i) and dj = proposal.(j) in
        if di.Node.id <> dj.Node.id && Node.has_ib di = Node.has_ib dj then begin
          let g = gain i j in
          let k = Swap_price.gain prices i j in
          if not (Int64.equal (Int64.bits_of_float k) (Int64.bits_of_float g)) then
            QCheck.Test.fail_reportf "pass %d: gain(%d, %d) %.17g, reference %.17g" !passes i j
              k g;
          if g > !best_gain then begin
            best_gain := g;
            best := Some (i, j)
          end
        end
      done
    done;
    match !best with
    | Some (i, j) ->
      let d = proposal.(i) in
      proposal.(i) <- proposal.(j);
      proposal.(j) <- d;
      Swap_price.exchange prices i j;
      incr swaps
    | None -> continue_ := false
  done;
  Array.iteri
    (fun i d ->
      if (Swap_price.host prices i).Node.id <> d.Node.id then
        QCheck.Test.fail_reportf "mover %d on %s, reference %s" i
          (Swap_price.host prices i).Node.name d.Node.name)
    proposal;
  (place, !swaps, !passes)

(* A random batch on a generated datacenter: VMs of varied footprints on
   random hosts, each aimed at a random node (some at their own host, so
   they stay bystanders), sometimes a two-VM rotation a free node stages,
   background flows that load the links one way, and a matrix with
   duplicate rows and self-entries whose endpoints are direct movers,
   staged VMs, bystanders and names unknown to the cluster. *)
let solver_swap_prop =
  QCheck.Test.make ~name:"Solver Swap agrees with the per-pair reference hill climb"
    ~count:150 QCheck.small_int (fun salt ->
      let prng = Prng.create ~seed:(Int64.of_int (2000 + salt)) in
      let sim = Sim.create ~seed:(Int64.of_int salt) () in
      let cluster = Cluster.create sim ~topology:(Topology.gen prng) () in
      let nodes = Array.of_list (Cluster.nodes cluster) in
      let pick a = a.(Prng.int prng (Array.length a)) in
      let boot name =
        Vm.create cluster ~name ~host:(pick nodes) ~vcpus:2 ~mem_bytes:(Units.gb 8.0)
          ~os_resident_bytes:(Units.gb (0.5 +. Prng.float prng 6.0))
          ()
      in
      let fleet =
        Array.init (2 + Prng.int prng 9) (fun i -> boot (Printf.sprintf "vm%02d" i))
      in
      let outsiders = List.init (Prng.int prng 3) (fun i -> boot (Printf.sprintf "out%d" i)) in
      let dst =
        Array.map (fun vm -> if Prng.int prng 6 = 0 then Vm.host vm else pick nodes) fleet
      in
      (let a = Prng.int prng (Array.length fleet) and b = Prng.int prng (Array.length fleet) in
       if Prng.bool prng && a <> b then begin
         dst.(a) <- Vm.host fleet.(b);
         dst.(b) <- Vm.host fleet.(a)
       end);
      for _ = 1 to 1 + Prng.int prng 6 do
        match Cluster.route_opt cluster ~net:Cluster.Eth ~src:(pick nodes) ~dst:(pick nodes) with
        | Some route ->
          ignore (Ninja_flownet.Fabric.start (Cluster.fabric cluster) ~route ~bytes:1e15)
        | None -> ()
      done;
      let names =
        Array.of_list (List.map Vm.name (Array.to_list fleet @ outsiders) @ [ "ghost" ])
      in
      let rows =
        List.init (1 + Prng.int prng 20) (fun _ ->
            let x = pick names in
            let y = if Prng.int prng 10 = 0 then x else pick names in
            (x, y, 10.0 ** (5.0 +. Prng.float prng 4.0)))
      in
      let traffic = rows @ List.filter (fun _ -> Prng.int prng 4 = 0) rows in
      let index vm =
        let found = ref 0 in
        Array.iteri (fun i v -> if v == vm then found := i) fleet;
        !found
      in
      let plan =
        Plan.of_assignment cluster ~vms:(Array.to_list fleet)
          ~dst_of:(fun vm -> dst.(index vm))
          ~staging:(List.filter (fun _ -> Prng.int prng 3 = 0) (Array.to_list nodes))
          ()
      in
      let env = Cost_model.env cluster ~traffic () in
      let expected, swaps, passes = oracle_hill_climb env plan in
      let reported = ref [] in
      let plan' =
        Probe.with_subscriber (Cluster.probes cluster)
          (fun ev ->
            match ev.Probe.payload with
            | Probe.Plan_swap { swaps; passes; _ } -> reported := (swaps, passes) :: !reported
            | _ -> ())
          (fun () -> Solver.solve Solver.Swap cluster ~traffic plan)
      in
      let got = Cost_model.plan_placement env plan' in
      Array.iter
        (fun name ->
          let where f = match f name with Some n -> n.Node.name | None -> "-" in
          if where got <> where expected then
            QCheck.Test.fail_reportf "%s lands on %s, reference %s" name (where got)
              (where expected))
        names;
      let want = if swaps = 0 then [] else [ (swaps, passes) ] in
      if !reported <> want then
        QCheck.Test.fail_reportf "Plan_swap reported %s, reference %d swaps in %d passes"
          (String.concat "; "
             (List.map (fun (s, p) -> Printf.sprintf "%d swaps in %d passes" s p) !reported))
          swaps passes;
      true)

let test_cost_model_decomposition () =
  let _, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  ignore (mk_vm cluster ~name:"b" ~host:"eth00");
  let env =
    Cost_model.env cluster ~traffic:[ ("a", "b", 1e6); ("a", "ghost", 1e6) ] ()
  in
  Alcotest.(check (float 0.0)) "same node is free" 0.0
    (Cost_model.pair_cost env (node cluster "ib00") (node cluster "ib00"));
  Alcotest.(check bool) "cross-rack pair costs" true
    (Cost_model.pair_cost env (node cluster "ib00") (node cluster "eth00") > 0.0);
  (* Entries whose endpoints are not placed VMs are skipped, not fatal. *)
  Alcotest.(check bool) "unknown endpoint ignored" true
    (Cost_model.current_cost env > 0.0);
  let plan =
    Plan.of_assignment cluster ~vms:[ a ] ~dst_of:(fun _ -> node cluster "eth01") ()
  in
  let m = Cost_model.plan_cost Cost_model.Migration_time env plan in
  let c = Cost_model.placement_cost env ~lookup:(Cost_model.plan_placement env plan) in
  let comp =
    Cost_model.plan_cost (Cost_model.Composite { horizon = 10.0 }) env plan
  in
  Alcotest.(check bool) "migration time positive" true (m > 0.0);
  Alcotest.(check (float 1e-6)) "composite = time + horizon * communication"
    (m +. (10.0 *. c)) comp

(* ------------------------------------------------------------------ *)
(* Executor *)

let run_plan sim cluster ?max_per_host plan =
  let report = ref None in
  Sim.spawn sim (fun () ->
      report := Some (Executor.run cluster ?max_per_host plan));
  Sim.run sim;
  Option.get !report

let test_executor_swap_via_staging () =
  let sim, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let b = mk_vm cluster ~name:"b" ~host:"ib01" in
  let dst_of vm =
    node cluster (if Vm.name vm = "a" then "ib01" else "ib00")
  in
  let plan =
    Plan.of_assignment cluster ~vms:[ a; b ] ~dst_of
      ~staging:[ node cluster "ib02" ] ()
  in
  let plan = Solver.solve Solver.Grouped cluster plan in
  let report = run_plan sim cluster plan in
  Alcotest.(check int) "three steps executed" 3
    (List.length report.Executor.step_results);
  Alcotest.(check string) "a landed on ib01" "ib01" (Vm.host a).Node.name;
  Alcotest.(check string) "b landed on ib00" "ib00" (Vm.host b).Node.name;
  Alcotest.(check bool) "makespan positive" true
    (Time.to_sec_f report.Executor.makespan > 0.0)

let test_executor_swap_max_per_host_one () =
  (* max_per_host = 1 is the tightest permit regime; the ordered
     acquisition must still complete the swap without Sim.Deadlock. *)
  let sim, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let b = mk_vm cluster ~name:"b" ~host:"ib01" in
  let dst_of vm =
    node cluster (if Vm.name vm = "a" then "ib01" else "ib00")
  in
  let plan =
    Plan.of_assignment cluster ~vms:[ a; b ] ~dst_of
      ~staging:[ node cluster "ib02" ] ()
  in
  let plan = Solver.solve Solver.Sequential cluster plan in
  let report = run_plan sim cluster ~max_per_host:1 plan in
  Alcotest.(check int) "all steps done" 3 (List.length report.Executor.step_results);
  Alcotest.(check string) "a on ib01" "ib01" (Vm.host a).Node.name;
  Alcotest.(check string) "b on ib00" "ib00" (Vm.host b).Node.name

let test_grouped_beats_sequential () =
  (* Four migrations share one 10 Gb/s uplink; two senders fill it.
     Grouped runs two waves of two; Sequential runs them one at a time
     and must take strictly longer. *)
  let makespan strategy =
    let sim, cluster, vms, dst_of = evacuation_scenario ~n:4 () in
    let plan = Plan.of_assignment cluster ~vms ~dst_of () in
    let plan = Solver.solve strategy cluster plan in
    let report = run_plan sim cluster plan in
    Time.to_sec_f report.Executor.makespan
  in
  let seq = makespan Solver.Sequential in
  let grp = makespan Solver.Grouped in
  Alcotest.(check bool)
    (Printf.sprintf "grouped (%.1fs) < sequential (%.1fs)" grp seq)
    true (grp < seq);
  Alcotest.(check bool) "grouped at most 60%% of sequential" true
    (grp <= 0.6 *. seq)

let test_overcommit_fallback_executes () =
  (* Two swap cycles but only one free staging node: one cycle gets the
     staging node, the other falls back to overcommitting a destination
     (plan/built counts it) — and the overcommitted plan still executes to
     the right final placement. *)
  let sim, cluster = setup () in
  let built = ref [] in
  ignore
    (Probe.attach (Cluster.probes cluster) (fun e ->
         match e.Probe.payload with
         | Probe.Plan_built { staged; overcommits; _ } -> built := (staged, overcommits) :: !built
         | _ -> ()));
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let b = mk_vm cluster ~name:"b" ~host:"ib01" in
  let c = mk_vm cluster ~name:"c" ~host:"ib02" in
  let d = mk_vm cluster ~name:"d" ~host:"ib03" in
  let dst_of vm =
    node cluster
      (match Vm.name vm with
      | "a" -> "ib01"
      | "b" -> "ib00"
      | "c" -> "ib03"
      | _ -> "ib02")
  in
  let plan =
    Plan.of_assignment cluster ~vms:[ a; b; c; d ] ~dst_of
      ~staging:[ node cluster "ib04" ] ()
  in
  let kinds =
    Plan.steps plan
    |> List.map (fun (s : Plan.step) -> Plan.kind_name s.Plan.kind)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "one cycle staged, the other overcommitted"
    [ "direct"; "direct"; "direct"; "stage-in"; "stage-out" ]
    kinds;
  Alcotest.(check bool) "acyclic" true (Plan.is_acyclic plan);
  Alcotest.(check (list (pair int int))) "overcommit fallback recorded" [ (1, 1) ] !built;
  let report = run_plan sim cluster plan in
  Alcotest.(check int) "five steps executed" 5
    (List.length report.Executor.step_results);
  List.iter
    (fun (vm, host) ->
      Alcotest.(check string) (Vm.name vm ^ " final host") host (Vm.host vm).Node.name)
    [ (a, "ib01"); (b, "ib00"); (c, "ib03"); (d, "ib02") ];
  Alcotest.(check int) "no permits leaked" 0 report.Executor.permits_leaked

let test_step_failed_carries_identity () =
  (* Regression: Step_failed used to swallow which step failed. The
     payload must name the step, the VM and the destination. *)
  let sim, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let plan =
    Plan.of_assignment cluster ~vms:[ a ] ~dst_of:(fun _ -> node cluster "eth00") ()
  in
  let expected_id = (List.hd (Plan.steps plan)).Plan.id in
  let calls = ref 0 in
  let failing (_ : Plan.step) =
    incr calls;
    failwith "synthetic monitor failure"
  in
  let seen = ref None in
  Sim.spawn sim (fun () ->
      try
        ignore (Executor.run cluster ~run_step:failing plan)
      with Executor.Step_failed { step_id; vm; dst; reason } ->
        seen := Some (step_id, vm, dst, reason));
  Sim.run sim;
  match !seen with
  | None -> Alcotest.fail "expected Step_failed"
  | Some (step_id, vm, dst, reason) ->
    Alcotest.(check int) "step id" expected_id step_id;
    Alcotest.(check string) "vm name" "a" vm;
    Alcotest.(check string) "destination" "eth00" dst;
    Alcotest.(check int) "retried on the schedule before failing" 3 !calls;
    Alcotest.(check bool) "reason kept" true (contains reason "synthetic monitor failure");
    Alcotest.(check bool) "attempt count reported" true (contains reason "3 attempts")

let test_executor_rejects_cycle () =
  let sim, cluster = setup () in
  let a = mk_vm cluster ~name:"a" ~host:"ib00" in
  let b = mk_vm cluster ~name:"b" ~host:"ib01" in
  let plan = Plan.create () in
  let sa =
    Plan.add_step plan ~vm:a ~src:(node cluster "ib00") ~dst:(node cluster "eth00")
      ~bytes:1e9 ()
  in
  let sb =
    Plan.add_step plan ~vm:b ~src:(node cluster "ib01") ~dst:(node cluster "eth01")
      ~bytes:1e9 ()
  in
  Plan.add_dep plan ~before:sa ~after:sb;
  Plan.add_dep plan ~before:sb ~after:sa;
  let raised = ref false in
  Sim.spawn sim (fun () ->
      try ignore (Executor.run cluster plan)
      with Plan.Cyclic _ -> raised := true);
  Sim.run sim;
  Alcotest.(check bool) "Cyclic raised instead of deadlock" true !raised

let () =
  Alcotest.run "planner"
    [
      ( "plan",
        [
          Alcotest.test_case "of_assignment basic" `Quick test_of_assignment_basic;
          Alcotest.test_case "stay-put VM skipped" `Quick test_stay_put_vm_has_no_step;
          Alcotest.test_case "capacity conflict edge" `Quick test_capacity_conflict_edge;
          Alcotest.test_case "swap cycle staged" `Quick test_swap_cycle_staged;
          Alcotest.test_case "swap without staging" `Quick
            test_swap_cycle_no_staging_falls_back;
          Alcotest.test_case "add_dep validation" `Quick test_add_dep_validation;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "estimate sanity" `Quick test_estimator_sanity;
          Alcotest.test_case "contention ranking" `Quick test_estimator_contention;
        ] );
      ( "solver",
        [
          Alcotest.test_case "sequential chain" `Quick test_sequential_chains_everything;
          Alcotest.test_case "grouped waves fit links" `Quick
            test_grouped_waves_respect_capacity;
          Alcotest.test_case "of_string" `Quick test_solver_of_string;
          Alcotest.test_case "closed set" `Quick test_solver_closed_set;
          Alcotest.test_case "swap lowers communication cost" `Quick
            test_swap_lowers_communication_cost;
          Alcotest.test_case "swap never crosses fabric class" `Quick
            test_swap_never_crosses_fabric_class;
          Alcotest.test_case "swap prices each direction" `Quick
            test_swap_prices_each_direction;
          QCheck_alcotest.to_alcotest solver_swap_prop;
          Alcotest.test_case "cost model decomposition" `Quick
            test_cost_model_decomposition;
        ] );
      ( "executor",
        [
          Alcotest.test_case "swap via staging" `Quick test_executor_swap_via_staging;
          Alcotest.test_case "swap at max_per_host=1" `Quick
            test_executor_swap_max_per_host_one;
          Alcotest.test_case "grouped beats sequential" `Quick
            test_grouped_beats_sequential;
          Alcotest.test_case "overcommit fallback executes" `Quick
            test_overcommit_fallback_executes;
          Alcotest.test_case "Step_failed carries identity" `Quick
            test_step_failed_carries_identity;
          Alcotest.test_case "cyclic plan rejected" `Quick test_executor_rejects_cycle;
        ] );
    ]
