include Probe_payload

type event = { at : Time.t; topic : string; payload : payload }

(* Each subscriber is boxed so [detach] can remove exactly the entry an
   [attach] created (closures have no useful equality). *)
type subscription = { fn : event -> unit }

type t = {
  sim : Sim.t;
  mutable subscribers : subscription list;
  mutable emitted : int;
}

let create sim = { sim; subscribers = []; emitted = 0 }

let attach t f =
  let s = { fn = f } in
  t.subscribers <- t.subscribers @ [ s ];
  s

let detach t s = t.subscribers <- List.filter (fun x -> x != s) t.subscribers

let with_subscriber t f body =
  let s = attach t f in
  Fun.protect ~finally:(fun () -> detach t s) body

let active t = t.subscribers <> []

let emitted t = t.emitted

let topic = function
  | Fence_enter _ | Fence_release _ -> "fence"
  | Device_add _ | Device_del _ | Vm_migrated _ -> "vm"
  | Qmp _ -> "qmp"
  | Plan_built _ | Plan_swap _ | Plan_cost _ -> "plan"
  | Executor_report _ -> "executor"
  | Migrate_start _ | Migrate_complete _ | Migrate_rollback _ | Migrate_giveup _ -> "migrate"
  | Migration_pull _ | Migration_lost _ | Migration_done _ -> "migration"
  | Stat _ | Request_done _ -> "ctl"
  | Fault _ -> "fault"
  | Node_death _ -> "node"
  | Trigger _ -> "scheduler"
  | Span_begin _ | Span_end _ | Span_note _ -> "span"

let emit t payload =
  match t.subscribers with
  | [] -> ()
  | subscribers ->
    t.emitted <- t.emitted + 1;
    let e = { at = Sim.now t.sim; topic = topic payload; payload } in
    List.iter (fun s -> s.fn e) subscribers

let stat_kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

let g17 = Printf.sprintf "%.17g"
let f0 = Printf.sprintf "%.0f"
let int = string_of_int
let bool = string_of_bool
let opt key v = if v = "" then [] else [ (key, v) ]
let track ~cat ~proc ~thread = [ ("cat", cat); ("proc", proc); ("tid", thread) ]

let fence id vms =
  ("vms", String.concat "," vms) :: ("count", int (List.length vms)) :: opt "id" id

let render = function
  | Fence_enter { id; vms } -> ("enter", "", fence id vms)
  | Fence_release { id; vms } -> ("release", "", fence id vms)
  | Device_add { vm; tag; bypass } -> ("device-add", vm, [ ("tag", tag); ("bypass", bool bypass) ])
  | Device_del { vm; tag } -> ("device-del", vm, [ ("tag", tag) ])
  | Vm_migrated { vm; src; dst; bypass } ->
    ("migrated", vm, [ ("src", src); ("dst", dst); ("bypass", bool bypass) ])
  | Qmp { vm; command; args } -> (command, vm, args)
  | Plan_built { steps; deps; acyclic; staged; overcommits } ->
    ( "built", "",
      [ ("steps", int steps); ("deps", int deps); ("acyclic", bool acyclic);
        ("staged", int staged); ("overcommits", int overcommits) ] )
  | Plan_swap { swaps; passes; movers } ->
    ("swap", "", [ ("swaps", int swaps); ("passes", int passes); ("movers", int movers) ])
  | Plan_cost { strategy; model; before; after } ->
    ( "cost", "",
      [ ("strategy", strategy); ("model", model); ("before", g17 before); ("after", g17 after) ] )
  | Executor_report { steps; failures; retries; rerouted; permits_leaked } ->
    ( "report", "",
      [ ("steps", int steps); ("failures", int failures); ("retries", int retries);
        ("rerouted", int rerouted); ("permits-leaked", int permits_leaked) ] )
  | Migrate_start { batch; origins } -> ("start", batch, origins @ opt "batch" batch)
  | Migrate_complete { batch } -> ("complete", batch, opt "batch" batch)
  | Migrate_rollback { batch; origins; reason; lost } ->
    ( "rollback", batch,
      opt "reason" reason @ List.map (fun vm -> ("lost", vm)) lost @ origins @ opt "batch" batch )
  | Migrate_giveup { vm; phase } -> ("giveup", vm, opt "phase" phase)
  | Migration_pull { vm; bytes; fresh_pages; dup_pages; remaining } ->
    ( "pull", vm,
      [ ("bytes", f0 bytes); ("fresh_pages", int fresh_pages); ("dup_pages", int dup_pages);
        ("remaining", f0 remaining) ] )
  | Migration_lost { vm; src; dst; missing } ->
    ("lost", vm, [ ("src", src); ("dst", dst); ("missing", f0 missing) ])
  | Migration_done { vm; src; dst; mode; bytes; rounds; downtime } ->
    ( "done", vm,
      [ ("src", src); ("dst", dst); ("mode", mode); ("bytes", f0 bytes); ("rounds", int rounds);
        ("downtime_ns", int (Time.to_int downtime)) ] )
  | Stat { name; kind; value } ->
    ("stat", name, [ ("kind", stat_kind_name kind); ("value", g17 value) ])
  | Request_done { tenant; outcome; kind; missed; completed = _; latency } ->
    ( "request-done", tenant,
      [ ("outcome", outcome); ("kind", kind); ("missed", bool missed); ("latency", g17 latency) ] )
  | Fault { point; site; firing } -> (point, site, [ ("firing", int firing) ])
  | Node_death { node } -> ("death", node, [])
  | Trigger { trigger } -> ("trigger", trigger, [])
  | Span_begin { name; cat; proc; thread; args } -> ("begin", name, track ~cat ~proc ~thread @ args)
  | Span_end { name; proc; thread; args } -> ("end", name, track ~cat:"" ~proc ~thread @ args)
  | Span_note { name; cat; proc; thread; start; args } ->
    ("note", name, (("start", int (Time.to_int start)) :: track ~cat ~proc ~thread) @ args)

let pp fmt e =
  let action, subject, info = render e.payload in
  Format.fprintf fmt "[%a] %s/%s" Time.pp e.at e.topic action;
  if subject <> "" then Format.fprintf fmt " %s" subject;
  List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) info
