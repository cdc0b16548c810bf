open Ninja_engine
open Ninja_flownet
open Ninja_hardware
open Ninja_vmm

type estimate = {
  wire_bytes : float;
  zero_bytes : float;
  dirty_bytes : float;
  rate : float;
  duration : Time.span;
  bottleneck : Fabric.link option;
}

let sender_demand = Migration.sender_rate Migration.Tcp

let route_between cluster ~src ~dst =
  Cluster.route cluster ~net:Cluster.Eth ~src ~dst

let route cluster (step : Plan.step) =
  route_between cluster ~src:step.Plan.src ~dst:step.Plan.dst

let thinnest_link links =
  List.fold_left
    (fun acc l ->
      match acc with
      | Some best when Fabric.link_capacity best <= Fabric.link_capacity l -> acc
      | _ -> Some l)
    None links

let thinnest_capacity cluster ~src ~dst =
  match thinnest_link (route_between cluster ~src ~dst) with
  | Some l -> Fabric.link_capacity l
  | None -> infinity

(* The arithmetic of an estimate, given the capacity of the route's
   thinnest link. *)
let over ~vm ~bytes ~link_cap =
  let memory = Vm.memory vm in
  let dirty_bytes = Float.min (Memory.dirty_bytes memory) bytes in
  let rate = Float.min sender_demand link_cap in
  let transfer_sec = (bytes +. dirty_bytes) /. rate in
  let scan_sec = Memory.zero_bytes memory /. Calibration.zero_scan_rate in
  (dirty_bytes, rate, Time.of_sec_f (transfer_sec +. scan_sec))

let move_duration ~vm ~bytes ~link_cap =
  let _, _, duration = over ~vm ~bytes ~link_cap in
  duration

let estimate_move cluster ~vm ~src ~dst ~bytes () =
  let thin = thinnest_link (route_between cluster ~src ~dst) in
  let link_cap = match thin with Some l -> Fabric.link_capacity l | None -> infinity in
  let dirty_bytes, rate, duration = over ~vm ~bytes ~link_cap in
  {
    wire_bytes = bytes;
    zero_bytes = Memory.zero_bytes (Vm.memory vm);
    dirty_bytes;
    rate;
    duration;
    bottleneck = (if link_cap < sender_demand then thin else None);
  }

let estimate cluster (step : Plan.step) =
  estimate_move cluster ~vm:step.Plan.vm ~src:step.Plan.src ~dst:step.Plan.dst
    ~bytes:step.Plan.bytes ()

let shared_links cluster a b =
  let rb = route cluster b in
  List.filter
    (fun l -> List.exists (fun l' -> Fabric.link_id l' = Fabric.link_id l) rb)
    (route cluster a)

let contention cluster plan =
  let loads = Hashtbl.create 16 in
  List.iter
    (fun (s : Plan.step) ->
      List.iter
        (fun l ->
          let id = Fabric.link_id l in
          let cur = match Hashtbl.find_opt loads id with Some (_, b) -> b | None -> 0.0 in
          Hashtbl.replace loads id (l, cur +. s.Plan.bytes))
        (route cluster s))
    (Plan.steps plan);
  Hashtbl.fold (fun _ lb acc -> lb :: acc) loads []
  |> List.sort (fun (la, ba) (lb, bb) ->
         match compare bb ba with 0 -> compare (Fabric.link_id la) (Fabric.link_id lb) | c -> c)

let link_load loads link =
  match
    List.find_opt (fun (l, _) -> Fabric.link_id l = Fabric.link_id link) loads
  with
  | Some (_, b) -> b
  | None -> 0.0

let sequential_duration cluster plan =
  List.fold_left
    (fun acc s -> Time.add acc (estimate cluster s).duration)
    Time.zero (Plan.steps plan)
