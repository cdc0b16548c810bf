open Ninja_engine

type tier = Leaf_spine | Fat_tree

type t = {
  tier : tier;
  pods : int;
  racks_per_pod : int;
  hosts_per_rack : int;
  ib_pods : int;
  oversub : float;
  cores : float;
  mem_gb : float;
  seed : int64;
}

let validate t =
  let ( let* ) = Result.bind in
  let check cond msg = if cond then Ok () else Error msg in
  let* () = check (t.pods >= 1) "pods must be >= 1" in
  let* () = check (t.racks_per_pod >= 1) "racks must be >= 1" in
  let* () = check (t.hosts_per_rack >= 1) "hosts must be >= 1" in
  let* () = check (t.ib_pods >= 0 && t.ib_pods <= t.pods) "ib-pods must be in [0, pods]" in
  let* () =
    check (t.oversub >= 1.0 && Float.is_finite t.oversub) "oversub must be >= 1"
  in
  let* () = check (t.cores > 0.0 && Float.is_finite t.cores) "cores must be positive" in
  check (t.mem_gb > 0.0 && Float.is_finite t.mem_gb) "mem-gb must be positive"

let v ?(tier = Leaf_spine) ?(pods = 2) ?(racks_per_pod = 2) ?(hosts_per_rack = 8)
    ?(ib_pods = 1) ?(oversub = 4.0) ?(cores = 8.0) ?(mem_gb = 48.0) ?(seed = 1L) () =
  let t =
    { tier; pods; racks_per_pod; hosts_per_rack; ib_pods; oversub; cores; mem_gb; seed }
  in
  Result.map (fun () -> t) (validate t)

(* ------------------------------------------------------------------ *)
(* Shape accessors *)

let rack_count t = t.pods * t.racks_per_pod

let host_count t = rack_count t * t.hosts_per_rack

let is_ib_pod t pod = pod >= 0 && pod < t.ib_pods

let pod_of_rack t rack = rack / t.racks_per_pod

let eth_host_count t = (t.pods - t.ib_pods) * t.racks_per_pod * t.hosts_per_rack

let mem_bytes t = Units.gb t.mem_gb

(* Host naming: p<pod>r<rack-in-pod>h<host-in-rack>, e.g. p0r1h03. *)
let host_name ~pod ~rack ~host = Printf.sprintf "p%dr%dh%02d" pod rack host

let pod_hosts t pod =
  List.concat
    (List.init t.racks_per_pod (fun rack ->
         List.init t.hosts_per_rack (fun host -> host_name ~pod ~rack ~host)))

let hosts t = List.concat (List.init t.pods (pod_hosts t))

(* One Spec group per (pod, rack): node names come out as p0r0h00, ... and
   node ids in pod-major order, so the same node-construction path serves
   both hand-written specs and generated topologies. *)
let to_spec t =
  let groups =
    List.concat
      (List.init t.pods (fun pod ->
           List.init t.racks_per_pod (fun rack ->
               {
                 Spec.count = t.hosts_per_rack;
                 name_prefix = Printf.sprintf "p%dr%dh" pod rack;
                 rack = (pod * t.racks_per_pod) + rack;
                 cores = t.cores;
                 mem_bytes = mem_bytes t;
                 with_ib = is_ib_pod t pod;
               })))
  in
  { Spec.name = "topology"; groups }

(* ------------------------------------------------------------------ *)
(* Aggregation-link capacities and latencies *)

(* A leaf (top-of-rack) uplink carries the rack's hosts at the configured
   oversubscription ratio. *)
let leaf_capacity t =
  float_of_int t.hosts_per_rack *. Calibration.eth10g_bandwidth /. t.oversub

(* The pod uplink into the core: a fat-tree provides full bisection above
   the leaves (oversubscription only at the edge), a leaf-spine fabric
   re-applies the ratio at the spine layer. *)
let pod_capacity t =
  let aggregate = float_of_int t.racks_per_pod *. leaf_capacity t in
  match t.tier with Fat_tree -> aggregate | Leaf_spine -> aggregate /. t.oversub

(* IB islands are per-pod and non-blocking: the paper's clusters keep the
   fast interconnect inside an enclosure-sized domain. *)
let ib_capacity t = float_of_int t.hosts_per_rack *. Calibration.ib_bandwidth

let leaf_hop_latency = Time.us 2

let spine_hop_latency = Time.us 10

(* ------------------------------------------------------------------ *)
(* Textual form: <tier>:pods=P,racks=R,hosts=H,ib-pods=I,oversub=X,
   cores=C,mem-gb=G,seed=S *)

let tier_to_string = function Leaf_spine -> "leaf-spine" | Fat_tree -> "fat-tree"

(* %.17g round-trips any finite double exactly. *)
let fstr = Printf.sprintf "%.17g"

let to_string t =
  Printf.sprintf "%s:pods=%d,racks=%d,hosts=%d,ib-pods=%d,oversub=%s,cores=%s,mem-gb=%s,seed=%Ld"
    (tier_to_string t.tier) t.pods t.racks_per_pod t.hosts_per_rack t.ib_pods
    (fstr t.oversub) (fstr t.cores) (fstr t.mem_gb) t.seed

let of_string s =
  let ( let* ) = Result.bind in
  let* tier, params =
    match String.index_opt s ':' with
    | None -> (
      match s with
      | "leaf-spine" -> Ok (Leaf_spine, "")
      | "fat-tree" -> Ok (Fat_tree, "")
      | _ -> Error (Printf.sprintf "topology %S: expected <tier>[:k=v,...]" s))
    | Some i -> (
      let params = String.sub s (i + 1) (String.length s - i - 1) in
      match String.sub s 0 i with
      | "leaf-spine" -> Ok (Leaf_spine, params)
      | "fat-tree" -> Ok (Fat_tree, params)
      | other -> Error (Printf.sprintf "unknown topology tier %S" other))
  in
  let parse_int k v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "bad integer %S for %s" v k)
  in
  let parse_float k v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> Ok f
    | _ -> Error (Printf.sprintf "bad number %S for %s" v k)
  in
  let default =
    { tier; pods = 2; racks_per_pod = 2; hosts_per_rack = 8; ib_pods = 1; oversub = 4.0;
      cores = 8.0; mem_gb = 48.0; seed = 1L }
  in
  let apply acc kv =
    let* t = acc in
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "malformed topology parameter %S (expected k=v)" kv)
    | Some i ->
      let k = String.trim (String.sub kv 0 i) in
      let v = String.trim (String.sub kv (i + 1) (String.length kv - i - 1)) in
      (match k with
      | "pods" -> Result.map (fun n -> { t with pods = n }) (parse_int k v)
      | "racks" -> Result.map (fun n -> { t with racks_per_pod = n }) (parse_int k v)
      | "hosts" -> Result.map (fun n -> { t with hosts_per_rack = n }) (parse_int k v)
      | "ib-pods" -> Result.map (fun n -> { t with ib_pods = n }) (parse_int k v)
      | "oversub" -> Result.map (fun f -> { t with oversub = f }) (parse_float k v)
      | "cores" -> Result.map (fun f -> { t with cores = f }) (parse_float k v)
      | "mem-gb" -> Result.map (fun f -> { t with mem_gb = f }) (parse_float k v)
      | "seed" -> (
        match Int64.of_string_opt v with
        | Some s -> Ok { t with seed = s }
        | None -> Error (Printf.sprintf "bad seed %S" v))
      | _ -> Error (Printf.sprintf "unknown topology parameter %S" k))
  in
  let params =
    if params = "" then []
    else String.split_on_char ',' params |> List.map String.trim
  in
  let* t = List.fold_left apply (Ok default) params in
  let* () = validate t in
  Ok t

(* ------------------------------------------------------------------ *)
(* Seeded VM placement *)

let place t ?pods ~vms ~vm_bytes () =
  if vms < 0 then invalid_arg "Topology.place: vms must be non-negative";
  if not (vm_bytes > 0.0 && Float.is_finite vm_bytes) then
    invalid_arg "Topology.place: vm_bytes must be positive";
  let allowed = match pods with None -> List.init t.pods Fun.id | Some ps -> ps in
  List.iter
    (fun p ->
      if p < 0 || p >= t.pods then
        invalid_arg (Printf.sprintf "Topology.place: pod %d out of range" p))
    allowed;
  let names = Array.of_list (List.concat_map (pod_hosts t) allowed) in
  let slots_per_host = int_of_float (Float.floor (mem_bytes t /. vm_bytes)) in
  if Array.length names * slots_per_host < vms then
    invalid_arg
      (Printf.sprintf "Topology.place: %d VMs exceed capacity (%d hosts x %d slots)" vms
         (Array.length names) slots_per_host);
  let slots = Array.make (Array.length names) slots_per_host in
  (* Candidate indices live in the prefix [0, active); a host whose slots
     run out is swapped behind the boundary. Draw order is fixed by the
     topology seed, so the same spec always produces the same placement. *)
  let index = Array.init (Array.length names) Fun.id in
  let active = ref (Array.length names) in
  let prng = Prng.create ~seed:t.seed in
  let rec draw i acc =
    if i = vms then List.rev acc
    else begin
      let pick = Prng.int prng !active in
      let host = index.(pick) in
      slots.(host) <- slots.(host) - 1;
      if slots.(host) = 0 then begin
        decr active;
        index.(pick) <- index.(!active);
        index.(!active) <- host
      end;
      draw (i + 1) (names.(host) :: acc)
    end
  in
  draw 0 []

(* ------------------------------------------------------------------ *)
(* Random topologies for the fuzzer (small, scenario-sized) *)

let gen prng =
  let tier = if Prng.bool prng then Leaf_spine else Fat_tree in
  let ib_pods = 1 + Prng.int prng 2 in
  let eth_pods = 1 + Prng.int prng 2 in
  {
    tier;
    pods = ib_pods + eth_pods;
    racks_per_pod = 1 + Prng.int prng 2;
    hosts_per_rack = 2 + Prng.int prng 3;
    ib_pods;
    oversub = [| 1.0; 2.0; 4.0 |].(Prng.int prng 3);
    cores = 8.0;
    mem_gb = 48.0;
    seed = Prng.next_int64 prng;
  }

let shrink t =
  let candidates = ref [] in
  let add c = if validate c = Ok () then candidates := c :: !candidates in
  if t.tier <> Leaf_spine then add { t with tier = Leaf_spine };
  if t.oversub > 1.0 then add { t with oversub = 1.0 };
  (* Keep at least one IB and one Ethernet pod: scenario workloads start
     on IB hosts and every trigger needs Ethernet refuges. *)
  if t.ib_pods > 1 then add { t with pods = t.pods - 1; ib_pods = t.ib_pods - 1 };
  if t.pods - t.ib_pods > 1 then add { t with pods = t.pods - 1 };
  if t.racks_per_pod > 1 then add { t with racks_per_pod = t.racks_per_pod - 1 };
  if t.hosts_per_rack > 2 then add { t with hosts_per_rack = t.hosts_per_rack - 1 };
  List.rev !candidates

let pp fmt t = Format.pp_print_string fmt (to_string t)
