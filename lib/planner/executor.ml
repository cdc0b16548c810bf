open Ninja_engine
open Ninja_hardware
open Ninja_vmm

type step_result = {
  step : Plan.step;
  started : Time.t;
  finished : Time.t;
  stats : Migration.stats;
}

type report = {
  started : Time.t;
  finished : Time.t;
  makespan : Time.span;
  total_downtime : Time.span;
  total_wire_bytes : float;
  step_results : step_result list;
  retries : int;
  retry_delay : Time.span;
  permits_leaked : int;
}

exception Step_failed of { step_id : int; vm : string; dst : string; reason : string }

let () =
  Printexc.register_printer (function
    | Step_failed { step_id; vm; dst; reason } ->
        Some (Printf.sprintf "step %d (%s -> %s): %s" step_id vm dst reason)
    | _ -> None)

let default_max_per_host = 4

let fail_of (step : Plan.step) reason =
  Step_failed
    {
      step_id = step.Plan.id;
      vm = Vm.name step.Plan.vm;
      dst = step.Plan.dst.Node.name;
      reason;
    }

(* A staged VM crosses two hops back to back. Running those hops
   postcopy would commit an irreversible switchover onto a scratch
   staging node, then immediately commit a second one — doubling the
   window in which a source death loses the VM, and stranding it on the
   staging node if the chain fails between hops. Staged hops therefore
   always run precopy; only Direct steps honour the requested mode. *)
let step_mode mode (step : Plan.step) =
  match step.Plan.kind with
  | Plan.Direct -> mode
  | Plan.Stage_out | Plan.Stage_in -> Migration.Precopy

let default_run_step mode (step : Plan.step) =
  let mode = step_mode mode step in
  match
    Qmp.execute step.Plan.vm
      (Qmp.Migrate { dst = step.Plan.dst; transport = Migration.Tcp; mode })
  with
  | Qmp.Migrated stats -> stats
  | Qmp.Error msg -> raise (fail_of step msg)
  | Qmp.Elapsed _ ->
      raise (fail_of step "unexpected QMP response to migrate")

(* Permits for the step's endpoints, in global node-id order: fibers never
   hold a high-id permit while waiting for a lower one, so permit waits
   cannot form a cycle even at max_per_host = 1. *)
let permit_nodes (step : Plan.step) =
  let src = step.Plan.src and dst = step.Plan.dst in
  if src.Node.id = dst.Node.id then [ src ]
  else if src.Node.id < dst.Node.id then [ src; dst ]
  else [ dst; src ]

let run cluster ?(mode = Migration.Precopy) ?(max_per_host = default_max_per_host) ?run_step
    ?reroute plan =
  if max_per_host <= 0 then invalid_arg "Executor.run: max_per_host must be positive";
  ignore (Plan.topo_order plan);
  let sim = Cluster.sim cluster in
  let probes = Cluster.probes cluster in
  let run_step = Option.value run_step ~default:(default_run_step mode) in
  let steps = Plan.steps plan in
  let started = Sim.now sim in
  let sems : (int, Semaphore.t) Hashtbl.t = Hashtbl.create 8 in
  let sem (n : Node.t) =
    match Hashtbl.find_opt sems n.Node.id with
    | Some s -> s
    | None ->
      let s = Semaphore.create max_per_host in
      Hashtbl.add sems n.Node.id s;
      s
  in
  (* Completion ivars carry no payload and are filled on success AND on
     terminal failure: dependents always get to run (the simulated hosts
     tolerate overcommit), so an injected failure can never deadlock the
     executor — it surfaces as [Step_failed] from the calling fiber after
     every step has settled. *)
  let done_ivars : (int, unit Ivar.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (s : Plan.step) -> Hashtbl.add done_ivars s.Plan.id (Ivar.create ())) steps;
  let completed = ref [] in
  let failures = ref [] in
  let retries = ref 0 in
  let rerouted = ref 0 in
  let retry_delay = ref Time.zero in
  List.iter
    (fun (s : Plan.step) ->
      Sim.spawn sim
        ~name:(Printf.sprintf "plan-step-%d-%s" s.Plan.id (Vm.name s.Plan.vm))
        (fun () ->
          List.iter
            (fun (d : Plan.step) ->
              ignore (Ivar.read (Hashtbl.find done_ivars d.Plan.id)))
            (Plan.deps_of plan s);
          let fail (step : Plan.step) reason =
            failures := (step, reason) :: !failures
          in
          (* A dead destination is not retried in place: the replanner (if
             any) supplies a live substitute and the step carries on. *)
          let reroute_or_fail (step : Plan.step) reason =
            match reroute with
            | None ->
                fail step reason;
                None
            | Some f -> (
                match f step with
                | Some (n : Node.t) when Cluster.node_alive cluster n ->
                    incr rerouted;
                    Some (Plan.with_dst step ~dst:n)
                | _ ->
                    fail step reason;
                    None)
          in
          let rec attempt (step : Plan.step) attempt_no =
            let step =
              if Cluster.node_alive cluster step.Plan.dst then Some step
              else
                reroute_or_fail step
                  (Printf.sprintf "destination %s is dead" step.Plan.dst.Node.name)
            in
            match step with
            | None -> ()
            | Some step -> (
                let nodes = permit_nodes step in
                List.iter (fun n -> Semaphore.acquire (sem n)) nodes;
                let t0 = Sim.now sim in
                (* One span per attempt, on the step's source track, where
                   the VMM migration span it triggers will nest under it. *)
                let traced = Probe.active probes in
                let name = if traced then Printf.sprintf "step-%d" step.Plan.id else "" in
                let proc = step.Plan.src.Node.name and thread = Vm.name step.Plan.vm in
                if traced then
                  Probe.emit probes
                    (Probe.Span_begin
                       { name; cat = "executor"; proc; thread;
                         args =
                           [ ("dst", step.Plan.dst.Node.name);
                             ("attempt", string_of_int attempt_no) ] });
                match
                  Fun.protect
                    ~finally:(fun () ->
                      if traced then
                        Probe.emit probes
                          (Probe.Span_end { name; proc; thread; args = [] }))
                    (fun () -> run_step step)
                with
                | stats ->
                    (* Release before waking dependents so a freed permit is
                       visible to them even at max_per_host = 1. *)
                    List.iter (fun n -> Semaphore.release (sem n)) nodes;
                    let finished = Sim.now sim in
                    let result = { step; started = t0; finished; stats } in
                    completed := result :: !completed
                | exception exn ->
                    List.iter (fun n -> Semaphore.release (sem n)) nodes;
                    let reason =
                      match exn with
                      | Step_failed f -> f.reason
                      | exn -> Printexc.to_string exn
                    in
                    if attempt_no >= Retry.max_attempts then
                      fail step
                        (Printf.sprintf "%s (after %d attempts)" reason attempt_no)
                    else if not (Cluster.node_alive cluster step.Plan.dst) then (
                      match reroute_or_fail step reason with
                      | Some step' ->
                          incr retries;
                          attempt step' (attempt_no + 1)
                      | None -> ())
                    else begin
                      let delay = Retry.backoff ~attempt:attempt_no in
                      incr retries;
                      retry_delay := Time.add !retry_delay delay;
                      let proc = step.Plan.src.Node.name
                      and thread = Vm.name step.Plan.vm in
                      if Probe.active probes then
                        Probe.emit probes
                          (Probe.Span_begin
                             { name = "backoff"; cat = "executor"; proc; thread;
                               args = [ ("step", string_of_int step.Plan.id) ] });
                      Sim.sleep delay;
                      if Probe.active probes then
                        Probe.emit probes
                          (Probe.Span_end { name = "backoff"; proc; thread; args = [] });
                      attempt step (attempt_no + 1)
                    end)
          in
          attempt s 1;
          Ivar.fill (Hashtbl.find done_ivars s.Plan.id) ()))
    steps;
  List.iter
    (fun (s : Plan.step) -> ignore (Ivar.read (Hashtbl.find done_ivars s.Plan.id)))
    steps;
  let finished = Sim.now sim in
  let step_results = List.rev !completed in
  let permits_leaked =
    Hashtbl.fold (fun _ s acc -> acc + (max_per_host - Semaphore.available s)) sems 0
  in
  (* The probe fires before any [Step_failed] is raised so an observer sees
     the permit balance even when the run fails. *)
  Probe.emit probes
    (Probe.Executor_report
       { steps = List.length step_results; failures = List.length !failures;
         retries = !retries; rerouted = !rerouted; permits_leaked });
  (match List.rev !failures with
  | [] -> ()
  | (step, reason) :: _ -> raise (fail_of step reason));
  {
    started;
    finished;
    makespan = Time.diff finished started;
    total_downtime =
      List.fold_left
        (fun acc r -> Time.add acc r.stats.Migration.downtime)
        Time.zero step_results;
    total_wire_bytes =
      List.fold_left (fun acc r -> acc +. r.stats.Migration.transferred_bytes) 0.0 step_results;
    step_results;
    retries = !retries;
    retry_delay = !retry_delay;
    permits_leaked;
  }

let pp_report fmt r =
  Format.fprintf fmt "@[<v>%d steps, makespan %a, downtime %a, %a on the wire"
    (List.length r.step_results) Time.pp r.makespan Time.pp r.total_downtime Units.pp_bytes
    r.total_wire_bytes;
  if r.retries > 0 then
    Format.fprintf fmt " (%d retries, %a lost)" r.retries Time.pp r.retry_delay;
  List.iter
    (fun (sr : step_result) ->
      Format.fprintf fmt "@,  [%a .. %a] %a" Time.pp sr.started Time.pp sr.finished
        Plan.pp_step sr.step)
    r.step_results;
  Format.fprintf fmt "@]"
