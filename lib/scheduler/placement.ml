open Ninja_hardware
open Ninja_vmm

let nodes_free cluster ~vms =
  let occupied = Hashtbl.create (List.length vms) in
  List.iter (fun vm -> Hashtbl.replace occupied (Vm.host vm).Node.id ()) vms;
  Cluster.nodes cluster
  |> List.filter (fun (n : Node.t) -> not (Hashtbl.mem occupied n.Node.id))
  |> List.sort (fun (a : Node.t) (b : Node.t) -> compare a.Node.id b.Node.id)

let evacuation_plan cluster ~vms ~avoid =
  let candidates =
    nodes_free cluster ~vms
    |> List.filter (fun n -> not (avoid n))
    (* Prefer IB-equipped refuges so recovered jobs keep their fast
       interconnect when possible. *)
    |> List.stable_sort (fun a b -> compare (Node.has_ib b) (Node.has_ib a))
  in
  let moving = List.filter (fun vm -> avoid (Vm.host vm)) vms in
  if List.length moving > List.length candidates then
    failwith "Placement.evacuation_plan: not enough free nodes";
  let assignment = List.combine moving (List.filteri (fun i _ -> i < List.length moving) candidates) in
  fun vm ->
    match List.assq_opt vm assignment with
    | Some dst -> dst
    | None -> Vm.host vm

let consolidation_plan _cluster ~vms ~vms_per_host ~targets =
  if vms_per_host <= 0 then invalid_arg "Placement.consolidation_plan: vms_per_host";
  let needed = (List.length vms + vms_per_host - 1) / vms_per_host in
  if needed > List.length targets then
    failwith "Placement.consolidation_plan: not enough target nodes";
  let assignment =
    List.mapi (fun i vm -> (vm, List.nth targets (i / vms_per_host))) vms
  in
  fun vm ->
    match List.assq_opt vm assignment with
    | Some dst -> dst
    | None -> Vm.host vm

let least_loaded ~load ~need candidates =
  let rec go best best_load = function
    | [] -> best
    | (n : Node.t) :: rest ->
      let l = load n in
      if
        l +. need <= n.Node.mem_bytes *. (1.0 +. 1e-9)
        && (match best with
           | None -> true
           | Some (b : Node.t) -> l < best_load || (l = best_load && n.Node.id < b.Node.id))
      then go (Some n) l rest
      else go best best_load rest
  in
  go None infinity candidates

let pack_least_loaded ~vms ~candidates ~load_bytes ~bytes_of () =
  (* Bytes this call has assigned to each node, by id, grown on demand. *)
  let planned = ref [||] in
  let extra (n : Node.t) =
    if n.Node.id < Array.length !planned then !planned.(n.Node.id) else 0.0
  in
  let projected n = load_bytes n +. extra n in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | vm :: rest -> (
      let need = bytes_of vm in
      match least_loaded ~load:projected ~need (candidates vm) with
      | None -> Error (Printf.sprintf "no feasible destination for %s" (Vm.name vm))
      | Some n ->
        let id = n.Node.id in
        let k = Array.length !planned in
        if id >= k then planned := Array.append !planned (Array.make ((2 * id) + 1 - k) 0.0);
        !planned.(id) <- !planned.(id) +. need;
        go ((vm, n) :: acc) rest)
  in
  go [] vms

let spread_plan _cluster ~vms ~targets =
  if List.length vms > List.length targets then
    failwith "Placement.spread_plan: not enough target nodes";
  let assignment = List.mapi (fun i vm -> (vm, List.nth targets i)) vms in
  fun vm ->
    match List.assq_opt vm assignment with
    | Some dst -> dst
    | None -> Vm.host vm
