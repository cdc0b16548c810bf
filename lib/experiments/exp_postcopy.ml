open Ninja_engine
open Ninja_hardware
open Ninja_metrics
open Ninja_vmm
open Exp_common

(* Precopy vs postcopy of a live, dirtying guest across the widest
   boundary of each topology. The dirtying rate is chosen so precopy
   cannot converge on an oversubscribed fabric — it burns its round
   budget and eats the residual dirty set as stop-and-copy downtime —
   while postcopy's downtime stays a constant hot-set push and the
   footprint drains as prioritized pulls whose tail the last columns
   report. *)

type entry = { label : string; topology : string option }

let entries rc =
  let oversubscribed =
    {
      label = "leaf-spine 4:1";
      topology = Some "leaf-spine:pods=2,racks=2,hosts=4,ib-pods=1,oversub=4";
    }
  in
  match rc.Run_ctx.mode with
  | Quick -> [ { label = "AGC testbed"; topology = None }; oversubscribed ]
  | Full ->
    [
      { label = "AGC testbed"; topology = None };
      oversubscribed;
      {
        label = "leaf-spine 8:1";
        topology = Some "leaf-spine:pods=2,racks=2,hosts=4,ib-pods=1,oversub=8";
      };
      {
        label = "fat-tree";
        topology = Some "fat-tree:pods=2,racks=2,hosts=4,ib-pods=1,oversub=4";
      };
    ]

type row = {
  mode : Migration.mode;
  stats : Migration.stats;
}

let by_node_id (a : Node.t) (b : Node.t) = compare a.Node.id b.Node.id

let measure rc entry ~mode =
  let env =
    match entry.topology with
    | None -> fresh ~spec:Spec.agc rc
    | Some text -> fresh (Run_ctx.with_topology (Some text) rc)
  in
  let sim = env.sim and cluster = env.cluster in
  let nodes = List.sort by_node_id (Cluster.alive_nodes cluster) in
  (* First to last host: in the generated topologies that crosses the
     pod uplink, the narrowest (most oversubscribed) link there is. *)
  let src = List.hd nodes in
  let dst = List.nth nodes (List.length nodes - 1) in
  let vm =
    Vm.create cluster ~name:"vm0" ~host:src ~vcpus:8 ~mem_bytes:(Units.gb 8.0) ()
  in
  let stats = ref None in
  let array = Units.gb 2.0 in
  Sim.spawn sim (fun () ->
      let region = Memory.alloc (Vm.memory vm) ~bytes:array in
      Vm.guest_write vm region ~offset:0.0 ~bytes:array ~bandwidth:3.0e9;
      (* A guest that re-dirties its array faster than any fabric can
         drain it, for the whole migration: precopy cannot converge and
         burns its round budget. The RDMA sender outruns the generated
         topologies' pod uplinks, so the fabric — not the sender — sets
         each topology's round and stop-and-copy times. *)
      Sim.spawn sim (fun () ->
          for _ = 1 to 700 do
            Vm.guest_write vm region ~offset:0.0 ~bytes:array ~bandwidth:3.0e9
          done);
      Sim.sleep (Time.ms 100);
      stats := Some (Migration.migrate vm ~dst ~transport:Migration.Rdma ~mode ()));
  run_until env (Time.minutes 120);
  { mode; stats = Option.get !stats }

let pull_tail_ms = function
  | [] -> 0.0
  | pulls ->
    let sorted = Array.of_list (List.map Time.to_sec_f pulls) in
    Array.sort Float.compare sorted;
    Stats.percentile_sorted 99.0 sorted *. 1e3

let run rc =
  let entries = entries rc in
  let points =
    List.concat_map
      (fun e -> [ (e, Migration.Precopy); (e, Migration.Postcopy) ])
      entries
  in
  let rows = sweep rc ~f:(fun rc (e, mode) -> (e, measure rc e ~mode)) points in
  let table =
    Table.create
      ~title:
        "Postcopy: precopy vs postcopy of a live 2 GB writer across topologies \
         [downtime/total in s, pull p99 in ms]"
      ~columns:
        [ "Topology"; "downtime pre"; "downtime post"; "total pre"; "total post";
          "pull p99"; "pulls"; "wire GB pre"; "wire GB post" ]
  in
  List.iter
    (fun e ->
      let find mode =
        match
          List.find_opt
            (fun (e', r) -> e'.label = e.label && r.mode = mode)
            rows
        with
        | Some (_, r) -> r.stats
        | None -> assert false
      in
      let pre = find Migration.Precopy and post = find Migration.Postcopy in
      Table.add_row table
        [
          e.label;
          Printf.sprintf "%.2f" (sec pre.Migration.downtime);
          Printf.sprintf "%.2f" (sec post.Migration.downtime);
          Printf.sprintf "%.1f" (sec pre.Migration.duration);
          Printf.sprintf "%.1f" (sec post.Migration.duration);
          Printf.sprintf "%.0f" (pull_tail_ms post.Migration.pulls);
          string_of_int (List.length post.Migration.pulls);
          Printf.sprintf "%.1f" (pre.Migration.transferred_bytes /. 1e9);
          Printf.sprintf "%.1f" (post.Migration.transferred_bytes /. 1e9);
        ])
    entries;
  [ table ]
