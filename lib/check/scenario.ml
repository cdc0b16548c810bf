open Ninja_engine
open Ninja_hardware
open Ninja_planner

type trigger = Drain | Disaster | Consolidate of int | Rebalance

type plant = Skip_rollback | Skip_fence

let plants = [ Skip_rollback; Skip_fence ]

let plant_name = function Skip_rollback -> "skip-rollback" | Skip_fence -> "skip-fence"

let plant_of_string s =
  match List.find_opt (fun p -> plant_name p = s) plants with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown plant %S (expected %s)" s
         (String.concat " or " (List.map plant_name plants)))

type t = {
  seed : int64;
  ib : int;
  eth : int;
  topo : Topology.t option;
  vms : int;
  procs : int;
  mem_gb : float;
  compute : float;
  msg_bytes : float;
  until : float;
  uplink_gbps : float option;
  strategy : Solver.t;
  mode : Ninja_vmm.Migration.mode;
  traffic : string option;
  trigger : trigger;
  trigger_at : float;
  faults : string list;
  plant : plant option;
}

(* ------------------------------------------------------------------ *)
(* Generation *)

let frange prng lo hi = lo +. Prng.float prng (hi -. lo)

(* One random fault spec, constrained so an un-planted scenario is
   expected to pass: sources never die (node-death only targets Ethernet
   destinations), probabilities stay moderate, budgets stay finite. *)
let gen_fault prng ~vms ~eth_names =
  let vm_site = Printf.sprintf "vm%d" (Prng.int prng vms) in
  match Prng.int prng 6 with
  | 0 -> Printf.sprintf "precopy-stall@%s:count=%d" vm_site (1 + Prng.int prng 2)
  | 1 ->
    Printf.sprintf "precopy-abort@%s:p=%.2f,count=%d" vm_site
      (frange prng 0.3 0.8)
      (1 + Prng.int prng 2)
  | 2 ->
    Printf.sprintf "qmp-timeout:p=%.2f,count=%d" (frange prng 0.05 0.3)
      (1 + Prng.int prng 3)
  | 3 -> Printf.sprintf "attach-fail@%s:n=%d" vm_site (1 + Prng.int prng 2)
  | 4 -> Printf.sprintf "agent-crash@%s" vm_site
  | _ ->
    Printf.sprintf "node-death@%s:n=1"
      eth_names.(Prng.int prng (Array.length eth_names))

let gen prng =
  let seed = Prng.next_int64 prng in
  (* One in four scenarios runs on a generated datacenter topology
     instead of the two-rack spec, exercising multi-tier routes and the
     incremental solver's component tracking under the checker. *)
  let topo = if Prng.int prng 4 = 0 then Some (Topology.gen prng) else None in
  let vms =
    let v = 1 + Prng.int prng 4 in
    match topo with
    | None -> v
    | Some topo ->
      (* All origins stay in the first (IB) rack, and the Ethernet side
         must absorb the whole fleet for every trigger. *)
      min v (min topo.Topology.hosts_per_rack (Topology.eth_host_count topo))
  in
  let procs = 1 + Prng.int prng 2 in
  let ib = vms + Prng.int prng 3 in
  (* Every trigger needs room on the Ethernet side: [eth >= vms] makes
     rebalance/disaster/consolidate(1) feasible. *)
  let eth = vms + Prng.int prng 4 in
  let mem_gb = frange prng 4.0 16.0 in
  let compute = frange prng 0.1 0.4 in
  let msg_bytes = frange prng 1e6 2e8 in
  let until = frange prng 40.0 90.0 in
  let uplink_gbps =
    if Prng.int prng 4 = 0 && topo = None then Some (frange prng 5.0 25.0) else None
  in
  let strategy =
    let all = Solver.all () in
    List.nth all (Prng.int prng (List.length all))
  in
  (* One in three scenarios migrates postcopy, so the committed-switchover
     failure semantics and pull bookkeeping run under the checker as often
     as the precopy rollback paths do. *)
  let mode =
    if Prng.int prng 3 = 0 then Ninja_vmm.Migration.Postcopy else Ninja_vmm.Migration.Precopy
  in
  (* One in three scenarios carries a tenant traffic matrix, so every
     strategy (the swap solver in particular) sees priced
     communication demand under the checker. *)
  let traffic =
    if Prng.int prng 3 = 0 then
      Some (Ninja_workloads.Traffic.to_string (Ninja_workloads.Traffic.gen prng))
    else None
  in
  let trigger =
    match Prng.int prng 4 with
    | 0 -> Drain
    | 1 -> Disaster
    | 2 -> Consolidate (1 + Prng.int prng 2)
    | _ -> Rebalance
  in
  let trigger_at = frange prng 3.0 10.0 in
  let eth_names =
    match topo with
    | None -> Array.init eth (Printf.sprintf "eth%02d")
    | Some topo ->
      List.init (topo.Topology.pods - topo.Topology.ib_pods) (fun i ->
          Topology.pod_hosts topo (topo.Topology.ib_pods + i))
      |> List.concat |> Array.of_list
  in
  let faults = List.init (Prng.int prng 3) (fun _ -> gen_fault prng ~vms ~eth_names) in
  {
    seed;
    ib;
    eth;
    topo;
    vms;
    procs;
    mem_gb;
    compute;
    msg_bytes;
    until;
    uplink_gbps;
    strategy;
    mode;
    traffic;
    trigger;
    trigger_at;
    faults;
    plant = None;
  }

(* ------------------------------------------------------------------ *)
(* Validation *)

let validate t =
  let ( let* ) = Result.bind in
  let check cond msg = if cond then Ok () else Error msg in
  let* () =
    match t.topo with
    | None ->
      let* () = check (t.ib >= 1 && t.eth >= 1) "need at least one node per rack" in
      check (t.vms >= 1 && t.vms <= t.ib) "vms must be in [1, ib]"
    | Some topo ->
      let* () = Topology.validate topo in
      let* () = check (topo.Topology.ib_pods >= 1) "topology needs at least one IB pod" in
      let* () =
        check (Topology.eth_host_count topo >= 1) "topology needs Ethernet hosts"
      in
      (* Origins fill the first IB rack, so a Disaster trigger (evacuate
         the origin rack) covers the whole fleet. *)
      let* () =
        check
          (t.vms >= 1 && t.vms <= topo.Topology.hosts_per_rack)
          "vms must fit the first topology rack"
      in
      let* () =
        check (t.mem_gb <= topo.Topology.mem_gb) "mem_gb exceeds topology host memory"
      in
      check (t.uplink_gbps = None) "uplink_gbps is not supported with a topology"
  in
  let eth_capacity =
    match t.topo with None -> t.eth | Some topo -> Topology.eth_host_count topo
  in
  let* () = check (t.procs >= 1) "procs must be >= 1" in
  let* () = check (t.mem_gb > 0.0 && Float.is_finite t.mem_gb) "mem_gb must be positive" in
  let* () = check (t.compute > 0.0) "compute must be positive" in
  let* () = check (t.msg_bytes >= 0.0) "msg_bytes must be non-negative" in
  let* () = check (t.until > t.trigger_at) "until must be after trigger_at" in
  let* () = check (t.trigger_at > 0.0) "trigger_at must be positive" in
  let* () =
    check
      (match t.uplink_gbps with None -> true | Some g -> g > 0.0)
      "uplink_gbps must be positive"
  in
  let* () =
    match t.traffic with
    | None -> Ok ()
    | Some s -> (
      match Ninja_workloads.Traffic.of_string s with
      | Ok _ -> Ok ()
      | Error e -> Error e)
  in
  let* () =
    match t.trigger with
    | Drain -> Ok ()
    | Disaster | Rebalance -> check (eth_capacity >= t.vms) "trigger needs eth >= vms"
    | Consolidate k ->
      let* () = check (k >= 1) "consolidate factor must be >= 1" in
      check (((t.vms + k - 1) / k) <= eth_capacity) "consolidate needs enough eth targets"
  in
  List.fold_left
    (fun acc f ->
      let* () = acc in
      match Ninja_faults.Injector.parse_spec f with
      | Ok _ -> Ok ()
      | Error e -> Error (Printf.sprintf "fault %S: %s" f e))
    (Ok ()) t.faults

(* ------------------------------------------------------------------ *)
(* Textual form *)

let trigger_to_string = function
  | Drain -> "drain"
  | Disaster -> "disaster"
  | Consolidate k -> Printf.sprintf "consolidate:%d" k
  | Rebalance -> "rebalance"

let trigger_of_string s =
  match String.split_on_char ':' s with
  | [ "drain" ] -> Ok Drain
  | [ "disaster" ] -> Ok Disaster
  | [ "rebalance" ] -> Ok Rebalance
  | [ "consolidate"; k ] -> (
    match int_of_string_opt k with
    | Some k when k >= 1 -> Ok (Consolidate k)
    | _ -> Error (Printf.sprintf "bad consolidate factor %S" k))
  | _ -> Error (Printf.sprintf "unknown trigger %S" s)

(* %.17g round-trips any finite double exactly. *)
let fstr = Printf.sprintf "%.17g"

let to_string t =
  let b = Buffer.create 256 in
  let line k v = Buffer.add_string b (k ^ "=" ^ v ^ "\n") in
  Buffer.add_string b "# ninja_sim check scenario\n";
  line "seed" (Int64.to_string t.seed);
  line "ib" (string_of_int t.ib);
  line "eth" (string_of_int t.eth);
  (match t.topo with Some topo -> line "topology" (Topology.to_string topo) | None -> ());
  line "vms" (string_of_int t.vms);
  line "procs" (string_of_int t.procs);
  line "mem_gb" (fstr t.mem_gb);
  line "compute" (fstr t.compute);
  line "msg_bytes" (fstr t.msg_bytes);
  line "until" (fstr t.until);
  (match t.uplink_gbps with Some g -> line "uplink_gbps" (fstr g) | None -> ());
  line "strategy" (Solver.name t.strategy);
  line "mode" (Ninja_vmm.Migration.mode_name t.mode);
  (match t.traffic with Some p -> line "traffic" p | None -> ());
  line "trigger" (trigger_to_string t.trigger);
  line "trigger_at" (fstr t.trigger_at);
  List.iter (fun f -> line "fault" f) t.faults;
  (match t.plant with Some p -> line "plant" (plant_name p) | None -> ());
  Buffer.contents b

let default =
  {
    seed = 1L;
    ib = 2;
    eth = 2;
    topo = None;
    vms = 1;
    procs = 1;
    mem_gb = 4.0;
    compute = 0.2;
    msg_bytes = 1e7;
    until = 40.0;
    uplink_gbps = None;
    strategy = Solver.Sequential;
    mode = Ninja_vmm.Migration.Precopy;
    traffic = None;
    trigger = Drain;
    trigger_at = 5.0;
    faults = [];
    plant = None;
  }

let of_string text =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
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
  let apply acc line =
    let* t = acc in
    match String.index_opt line '=' with
    | None -> Error (Printf.sprintf "malformed line %S (expected key=value)" line)
    | Some i ->
      let k = String.trim (String.sub line 0 i) in
      let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
      (match k with
      | "seed" -> (
        match Int64.of_string_opt v with
        | Some s -> Ok { t with seed = s }
        | None -> Error (Printf.sprintf "bad seed %S" v))
      | "ib" -> Result.map (fun n -> { t with ib = n }) (parse_int k v)
      | "eth" -> Result.map (fun n -> { t with eth = n }) (parse_int k v)
      | "topology" ->
        Result.map (fun topo -> { t with topo = Some topo }) (Topology.of_string v)
      | "vms" -> Result.map (fun n -> { t with vms = n }) (parse_int k v)
      | "procs" -> Result.map (fun n -> { t with procs = n }) (parse_int k v)
      | "mem_gb" -> Result.map (fun f -> { t with mem_gb = f }) (parse_float k v)
      | "compute" -> Result.map (fun f -> { t with compute = f }) (parse_float k v)
      | "msg_bytes" -> Result.map (fun f -> { t with msg_bytes = f }) (parse_float k v)
      | "until" -> Result.map (fun f -> { t with until = f }) (parse_float k v)
      | "uplink_gbps" ->
        Result.map (fun f -> { t with uplink_gbps = Some f }) (parse_float k v)
      | "strategy" ->
        Result.map (fun s -> { t with strategy = s }) (Solver.of_string v)
      | "mode" ->
        Result.map (fun m -> { t with mode = m }) (Ninja_vmm.Migration.mode_of_string v)
      (* The value itself contains '=' and ',' (e.g. skewed:elephants=2);
         the first-'=' split above keeps it intact. *)
      | "traffic" -> Ok { t with traffic = Some v }
      | "trigger" -> Result.map (fun tr -> { t with trigger = tr }) (trigger_of_string v)
      | "trigger_at" -> Result.map (fun f -> { t with trigger_at = f }) (parse_float k v)
      | "fault" -> Ok { t with faults = t.faults @ [ v ] }
      | "plant" -> Result.map (fun p -> { t with plant = Some p }) (plant_of_string v)
      | _ -> Error (Printf.sprintf "unknown scenario key %S" k))
  in
  let* t = List.fold_left apply (Ok default) lines in
  let* () = validate t in
  Ok t

(* ------------------------------------------------------------------ *)
(* Shrinking *)

let drop_nth n xs = List.filteri (fun i _ -> i <> n) xs

let shrink t =
  let candidates = ref [] in
  let add c = candidates := c :: !candidates in
  (* A smaller VM fleet may invalidate @vmN fault sites; keep only the
     faults whose sites still exist. *)
  let prune_vm_faults vms faults =
    List.filter
      (fun f ->
        match Ninja_faults.Injector.parse_spec f with
        | Ok { Ninja_faults.Injector.site = Some s; _ } ->
          (try Scanf.sscanf s "vm%d" (fun i -> i < vms) with _ -> true)
        | _ -> true)
      faults
  in
  (* Most aggressive first: collapse the topology to the two-rack spec,
     then try smaller topologies. *)
  if t.topo <> None then add { t with topo = None };
  (match t.topo with
  | Some topo -> List.iter (fun c -> add { t with topo = Some c }) (Topology.shrink topo)
  | None -> ());
  if t.trigger <> Drain then add { t with trigger = Drain };
  if t.strategy <> Solver.Sequential then add { t with strategy = Solver.Sequential };
  if t.mode <> Ninja_vmm.Migration.Precopy then
    add { t with mode = Ninja_vmm.Migration.Precopy };
  if t.traffic <> None then add { t with traffic = None };
  if t.uplink_gbps <> None then add { t with uplink_gbps = None };
  if t.until > 40.0 then add { t with until = Float.max 40.0 (t.until /. 2.0) };
  if t.msg_bytes > 1e6 then add { t with msg_bytes = 1e6 };
  if t.compute > 0.1 then add { t with compute = 0.1 };
  if t.mem_gb > 4.0 then add { t with mem_gb = Float.max 4.0 (t.mem_gb /. 2.0) };
  if t.procs > 1 then add { t with procs = 1 };
  if t.vms > 1 then
    add { t with vms = t.vms - 1; faults = prune_vm_faults (t.vms - 1) t.faults };
  List.iteri (fun i _ -> add { t with faults = drop_nth i t.faults }) t.faults;
  (* A candidate produced by one simplification can violate another
     dimension's constraint (e.g. a shrunken topology's rack no longer
     holds the fleet); only valid scenarios may reach the re-runner. *)
  List.rev !candidates |> List.filter (fun c -> validate c = Ok ())

let pp fmt t =
  Format.fprintf fmt "seed=%Ld %s, %d vm(s) x%d, %s/%s%s @%.1fs%s%s%s" t.seed
    (match t.topo with
    | None -> Printf.sprintf "%d+%d nodes" t.ib t.eth
    | Some topo -> Topology.to_string topo)
    t.vms t.procs
    (trigger_to_string t.trigger)
    (Solver.name t.strategy)
    (match t.mode with
    | Ninja_vmm.Migration.Precopy -> ""
    | Ninja_vmm.Migration.Postcopy -> "/postcopy")
    t.trigger_at
    (match t.traffic with None -> "" | Some p -> " traffic=" ^ p)
    (match t.faults with
    | [] -> ""
    | fs -> " faults=[" ^ String.concat "; " fs ^ "]")
    (match t.plant with None -> "" | Some p -> " plant=" ^ plant_name p)
