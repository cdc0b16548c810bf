open Ninja_engine
open Ninja_flownet
open Ninja_hardware
open Ninja_vmm

type t = Sequential | Grouped | Swap

let all () = [ Sequential; Grouped; Swap ]

let name = function Sequential -> "sequential" | Grouped -> "grouped" | Swap -> "swap"

let alias = function Sequential -> "seq" | Grouped -> "group" | Swap -> "destination-swap"

let help () = String.concat "|" (List.map name (all ()))

let of_string s =
  let key = String.lowercase_ascii (String.trim s) in
  match List.find_opt (fun h -> name h = key || alias h = key) (all ()) with
  | Some h -> Ok h
  | None -> Error (Printf.sprintf "unknown strategy %S (expected %s)" s (help ()))

let default = Grouped

(* ---- sequential ---- *)

let sequential_impl _env plan =
  let rec chain = function
    | a :: (b :: _ as rest) ->
      Plan.add_dep plan ~before:a ~after:b;
      chain rest
    | [] | [ _ ] -> ()
  in
  chain (Plan.topo_order plan);
  plan

(* ---- grouped ---- *)

(* Greedy wave packing. Steps are released in dependency order (Kahn);
   among the released steps the most contended work goes first, and each
   step lands in the earliest wave where (a) all its plan dependencies
   are in strictly earlier waves and (b) adding its standalone rate
   oversubscribes no fabric link used by that wave. *)
let grouped_waves cluster plan =
  let steps = Plan.steps plan in
  let n = Plan.length plan in
  if n = 0 then []
  else begin
    let est = Array.make n None in
    List.iter
      (fun (s : Plan.step) ->
        est.(s.Plan.id) <- Some (Estimator.estimate cluster s))
      steps;
    let est i = Option.get est.(i) in
    let loads = Estimator.contention cluster plan in
    let hot_load (s : Plan.step) =
      List.fold_left
        (fun acc l -> Float.max acc (Estimator.link_load loads l))
        0.0
        (Estimator.route cluster s)
    in
    let priority = Array.make n 0.0 in
    let bytes = Array.make n 0.0 in
    List.iter
      (fun (s : Plan.step) ->
        priority.(s.Plan.id) <- hot_load s;
        bytes.(s.Plan.id) <- s.Plan.bytes)
      steps;
    let better a b =
      (* Larger footprint on the more contended link first; id for ties. *)
      priority.(a) > priority.(b)
      || (priority.(a) = priority.(b)
         && (bytes.(a) > bytes.(b) || (bytes.(a) = bytes.(b) && a < b)))
    in
    let indeg = Array.make n 0 in
    let out = Array.make n [] in
    List.iter
      (fun (s : Plan.step) ->
        let ds = Plan.deps_of plan s in
        indeg.(s.Plan.id) <- List.length ds;
        List.iter (fun (d : Plan.step) -> out.(d.Plan.id) <- s.Plan.id :: out.(d.Plan.id)) ds)
      steps;
    let ready = ref (List.filter_map (fun (s : Plan.step) -> if indeg.(s.Plan.id) = 0 then Some s.Plan.id else None) steps) in
    let wave = Array.make n 0 in
    let usage : (int * int, float) Hashtbl.t = Hashtbl.create 32 in
    let fits w (s : Plan.step) demand =
      List.for_all
        (fun l ->
          let used = Option.value (Hashtbl.find_opt usage (w, Fabric.link_id l)) ~default:0.0 in
          used +. demand <= Fabric.link_capacity l +. 1e-6)
        (Estimator.route cluster s)
    in
    let occupy w (s : Plan.step) demand =
      List.iter
        (fun l ->
          let key = (w, Fabric.link_id l) in
          let used = Option.value (Hashtbl.find_opt usage key) ~default:0.0 in
          Hashtbl.replace usage key (used +. demand))
        (Estimator.route cluster s)
    in
    let max_wave = ref 0 in
    while !ready <> [] do
      let id = List.fold_left (fun best i -> if better i best then i else best) (List.hd !ready) !ready in
      ready := List.filter (fun i -> i <> id) !ready;
      let s = Plan.find plan id in
      let floor =
        List.fold_left
          (fun acc (d : Plan.step) -> max acc (wave.(d.Plan.id) + 1))
          1 (Plan.deps_of plan s)
      in
      let demand = (est id).Estimator.rate in
      let w = ref floor in
      while not (fits !w s demand) do
        incr w
      done;
      wave.(id) <- !w;
      occupy !w s demand;
      if !w > !max_wave then max_wave := !w;
      List.iter
        (fun j ->
          indeg.(j) <- indeg.(j) - 1;
          if indeg.(j) = 0 then ready := j :: !ready)
        out.(id)
    done;
    List.init !max_wave (fun i ->
        List.filter (fun (s : Plan.step) -> wave.(s.Plan.id) = i + 1) steps)
  end

let grouped_impl (env : Cost_model.env) plan =
  let waves = grouped_waves env.Cost_model.cluster plan in
  let rec order earlier = function
    | [] -> ()
    | wave :: rest ->
      List.iter
        (fun (s : Plan.step) ->
          List.iter
            (fun (s' : Plan.step) ->
              if Estimator.shared_links env.Cost_model.cluster s s' <> [] then
                Plan.add_dep plan ~before:s' ~after:s)
            earlier)
        wave;
      order (earlier @ wave) rest
  in
  order [] waves;
  plan

(* ---- swap ---- *)

(* Greedy best-swap-first hill climb over destination exchanges. Each
   pass applies the single exchange of two direct steps' destinations
   with the largest positive net gain, priced by {!Swap_price};
   deterministic because ties keep the first (lowest-index) maximum.
   Destination multisets are invariant under exchanges, so per-node load
   is exactly what the original assignment committed to. *)
let swap_impl (env : Cost_model.env) plan =
  let cluster = env.Cost_model.cluster in
  let directs =
    Array.of_list
      (List.filter (fun (s : Plan.step) -> s.Plan.kind = Plan.Direct) (Plan.steps plan))
  in
  let n = Array.length directs in
  if n < 2 || env.Cost_model.traffic = [] then grouped_impl env plan
  else begin
    (* Staged VMs and bystanders sit where the original plan leaves them;
       direct movers at their live proposal. *)
    let prices =
      Swap_price.make env ~place:(Cost_model.plan_placement env plan)
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
    let swaps = ref 0 in
    let pass_limit = (4 * n) + 16 in
    let continue_ = ref true in
    let passes = ref 0 in
    while !continue_ && !passes < pass_limit do
      incr passes;
      match Swap_price.best prices ~movable:(fun _ -> true) with
      | Some (i, j, _) ->
        Swap_price.exchange prices i j;
        incr swaps
      | None -> continue_ := false
    done;
    if !swaps = 0 then grouped_impl env plan
    else begin
      (* Rebuild a conflict-correct plan for the adjusted assignment; the
         original plan's staging choices and byte estimates carry over. *)
      let final : (string, Node.t) Hashtbl.t = Hashtbl.create n in
      Array.iteri
        (fun i (s : Plan.step) ->
          Hashtbl.replace final (Vm.name s.Plan.vm) (Swap_price.host prices i))
        directs;
      let bytes : (string, float) Hashtbl.t = Hashtbl.create n in
      let staging = ref [] in
      let vms = ref [] in
      List.iter
        (fun (s : Plan.step) ->
          let nm = Vm.name s.Plan.vm in
          (match s.Plan.kind with
          | Plan.Direct -> Hashtbl.replace bytes nm s.Plan.bytes
          | Plan.Stage_in -> Hashtbl.replace final nm s.Plan.dst
          | Plan.Stage_out ->
            Hashtbl.replace bytes nm s.Plan.bytes;
            if not (List.exists (fun (x : Node.t) -> x.Node.id = s.Plan.dst.Node.id) !staging)
            then staging := s.Plan.dst :: !staging);
          if not (List.exists (fun v -> String.equal (Vm.name v) nm) !vms) then
            vms := s.Plan.vm :: !vms)
        (Plan.steps plan);
      let vms = List.rev !vms in
      let plan' =
        Plan.of_assignment cluster ~vms
          ~dst_of:(fun vm -> Hashtbl.find final (Vm.name vm))
          ~staging:(List.rev !staging)
          ~bytes_of:(fun vm -> Hashtbl.find bytes (Vm.name vm))
          ()
      in
      let probes = Cluster.probes cluster in
      if Probe.active probes then
        Probe.emit probes (Probe.Plan_swap { swaps = !swaps; passes = !passes; movers = n });
      grouped_impl env plan'
    end
  end

(* ---- solving ---- *)

let solve h cluster ?(traffic = []) plan =
  let env = Cost_model.env cluster ~traffic () in
  (* Each strategy's implementation and the cost model it optimises. *)
  let impl, cost =
    match h with
    | Sequential -> (sequential_impl, Cost_model.Migration_time)
    | Grouped -> (grouped_impl, Cost_model.Migration_time)
    | Swap -> (swap_impl, Cost_model.Composite { horizon = Cost_model.default_horizon })
  in
  let probes = Cluster.probes cluster in
  if not (Probe.active probes) then impl env plan
  else begin
    let before = Cost_model.plan_cost cost env plan in
    let plan = impl env plan in
    let after = Cost_model.plan_cost cost env plan in
    let gauge name value = Probe.emit probes (Probe.Stat { name; kind = Probe.Gauge; value }) in
    gauge "plan.cost.before" before;
    gauge "plan.cost.after" after;
    Probe.emit probes
      (Probe.Plan_cost
         { strategy = name h; model = Cost_model.describe cost; before; after });
    plan
  end
