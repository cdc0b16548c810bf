open Ninja_engine

(* A PowerEdge M610-class blade: ~15 W asleep, ~160 W idle, +110 W at
   full load. *)
let sleep_watts = 15.0

let idle_watts = 160.0

let dynamic_watts = 110.0

type meter = {
  nodes : Node.t list;
  joules : (int, float) Hashtbl.t;
  mutable n_samples : int;
}

let node_power ~awake node =
  if not (awake node) then sleep_watts
  else idle_watts +. (dynamic_watts *. Ps_resource.utilization node.Node.cpu)

let default_awake (n : Node.t) = Ps_resource.utilization n.Node.cpu > 0.0

let measure sim ?(awake = default_awake) ~until nodes =
  let meter = { nodes; joules = Hashtbl.create 16; n_samples = 0 } in
  let interval = Time.sec 1 in
  List.iter (fun (n : Node.t) -> Hashtbl.replace meter.joules n.Node.id 0.0) nodes;
  let dt = Time.to_sec_f interval in
  Sim.spawn sim ~name:"power-meter" (fun () ->
      while Time.(Time.add (Sim.now sim) interval <= until) do
        Sim.sleep interval;
        meter.n_samples <- meter.n_samples + 1;
        List.iter
          (fun (n : Node.t) ->
            let j = Hashtbl.find meter.joules n.Node.id in
            Hashtbl.replace meter.joules n.Node.id (j +. (node_power ~awake n *. dt)))
          nodes
      done);
  meter

let per_node_joules meter =
  List.map (fun (n : Node.t) -> (n, Hashtbl.find meter.joules n.Node.id)) meter.nodes

let energy_joules meter = List.fold_left (fun acc (_, j) -> acc +. j) 0.0 (per_node_joules meter)

let samples meter = meter.n_samples
