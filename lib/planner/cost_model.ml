open Ninja_flownet
open Ninja_hardware
open Ninja_vmm

type traffic = (string * string * float) list

type t = Migration_time | Composite of { horizon : float }

let default_horizon = 600.0

let describe = function
  | Migration_time -> "migration-time"
  | Composite { horizon } -> Printf.sprintf "composite(horizon=%gs)" horizon

type env = { cluster : Cluster.t; traffic : traffic }

let env cluster ?(traffic = []) () = { cluster; traffic }

(* Residual capacity floored at 1% so a saturated link prices as "very
   expensive", not as an absorbing infinity that would make every
   placement containing it incomparable. *)
let residual fabric l =
  let cap = Fabric.link_capacity l in
  Float.max (0.01 *. cap) (cap -. Fabric.link_utilization fabric l)

let pair_cost e a b =
  if Node.(a.id = b.id) then 0.0
  else
    match Cluster.route_opt e.cluster ~net:Cluster.Eth ~src:a ~dst:b with
    | None -> infinity
    | Some links ->
      let fabric = Cluster.fabric e.cluster in
      List.fold_left (fun acc l -> acc +. (1.0 /. residual fabric l)) 0.0 links

let placement_cost e ~lookup =
  List.fold_left
    (fun acc (a, b, rate) ->
      match (lookup a, lookup b) with
      | Some na, Some nb -> acc +. (rate *. pair_cost e na nb)
      | _ -> acc)
    0.0 e.traffic

let current_cost e = placement_cost e ~lookup:(fun name -> Cluster.vm_node e.cluster ~name)

let move_seconds e ~vm ~src ~dst ?bytes () =
  if Node.(src.id = dst.id) then 0.0
  else
    let bytes =
      match bytes with Some b -> b | None -> Memory.nonzero_bytes (Vm.memory vm)
    in
    let est =
      Estimator.estimate_move e.cluster ~vm ~src ~dst ~bytes ()
    in
    Ninja_engine.Time.to_sec_f est.Estimator.duration

let plan_seconds e plan =
  Ninja_engine.Time.to_sec_f
    (Estimator.sequential_duration e.cluster plan)

let plan_placement e plan =
  let final : (string, Node.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Plan.step) ->
      match s.Plan.kind with
      | Plan.Direct | Plan.Stage_in -> Hashtbl.replace final (Vm.name s.Plan.vm) s.Plan.dst
      | Plan.Stage_out -> ())
    (Plan.steps plan);
  fun name ->
    match Hashtbl.find_opt final name with
    | Some n -> Some n
    | None -> Cluster.vm_node e.cluster ~name

let plan_cost model e plan =
  match model with
  | Migration_time -> plan_seconds e plan
  | Composite { horizon } ->
    plan_seconds e plan +. (horizon *. placement_cost e ~lookup:(plan_placement e plan))
