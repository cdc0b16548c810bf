open Ninja_engine
open Ninja_hardware
open Ninja_vmm

type kind = Direct | Stage_out | Stage_in

type step = {
  id : int;
  vm : Vm.t;
  src : Node.t;
  dst : Node.t;
  bytes : float;
  kind : kind;
}

type t = {
  mutable rev_steps : step list;
  by_id : (int, step) Hashtbl.t;
  deps : (int, int list ref) Hashtbl.t;  (* after id -> before ids *)
  dep_set : (int * int, unit) Hashtbl.t;  (* (after, before) membership *)
}

exception Cyclic of string

let create () =
  {
    rev_steps = [];
    by_id = Hashtbl.create 16;
    deps = Hashtbl.create 16;
    dep_set = Hashtbl.create 16;
  }

let length t = Hashtbl.length t.by_id

let steps t = List.rev t.rev_steps

let find t id = Hashtbl.find t.by_id id

let with_dst (s : step) ~dst = { s with dst }

let add_step t ~vm ~src ~dst ~bytes ?(kind = Direct) () =
  if bytes < 0.0 || not (Float.is_finite bytes) then
    invalid_arg "Plan.add_step: bytes must be non-negative and finite";
  let step = { id = length t; vm; src; dst; bytes; kind } in
  t.rev_steps <- step :: t.rev_steps;
  Hashtbl.add t.by_id step.id step;
  step

let owned t step =
  match Hashtbl.find_opt t.by_id step.id with Some s -> s == step | None -> false

let add_dep t ~before ~after =
  if not (owned t before && owned t after) then
    invalid_arg "Plan.add_dep: step does not belong to this plan";
  if before.id = after.id then invalid_arg "Plan.add_dep: self-dependency";
  let cell =
    match Hashtbl.find_opt t.deps after.id with
    | Some c -> c
    | None ->
      let c = ref [] in
      Hashtbl.add t.deps after.id c;
      c
  in
  if not (Hashtbl.mem t.dep_set (after.id, before.id)) then begin
    Hashtbl.add t.dep_set (after.id, before.id) ();
    cell := before.id :: !cell
  end

let dep_ids t step =
  match Hashtbl.find_opt t.deps step.id with Some c -> List.sort compare !c | None -> []

let deps_of t step = List.map (find t) (dep_ids t step)

let dep_count t = Hashtbl.fold (fun _ c acc -> acc + List.length !c) t.deps 0

let topo_order t =
  let all = steps t in
  let n = length t in
  let indeg = Array.make n 0 in
  List.iter (fun s -> indeg.(s.id) <- List.length (dep_ids t s)) all;
  (* dependents adjacency *)
  let out = Array.make n [] in
  List.iter
    (fun s -> List.iter (fun d -> out.(d) <- s.id :: out.(d)) (dep_ids t s))
    all;
  let module Ints = Set.Make (Int) in
  let ready = ref (Ints.of_list (List.filter_map (fun s -> if indeg.(s.id) = 0 then Some s.id else None) all)) in
  let order = ref [] in
  let emitted = ref 0 in
  while not (Ints.is_empty !ready) do
    let id = Ints.min_elt !ready in
    ready := Ints.remove id !ready;
    order := find t id :: !order;
    incr emitted;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then ready := Ints.add j !ready)
      out.(id)
  done;
  if !emitted <> n then begin
    let stuck =
      List.filter (fun s -> indeg.(s.id) > 0) all
      |> List.map (fun s -> Printf.sprintf "step %d (%s)" s.id (Vm.name s.vm))
    in
    raise (Cyclic (String.concat ", " stuck))
  end;
  List.rev !order

let is_acyclic t = match topo_order t with _ -> true | exception Cyclic _ -> false

let nodes_touched t =
  let module Ints = Set.Make (Int) in
  let ids =
    List.fold_left
      (fun acc s -> Ints.add s.src.Node.id (Ints.add s.dst.Node.id acc))
      Ints.empty (steps t)
  in
  let by_id = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.src.Node.id s.src;
      Hashtbl.replace by_id s.dst.Node.id s.dst)
    (steps t);
  List.map (Hashtbl.find by_id) (Ints.elements ids)

let kind_name = function
  | Direct -> "direct"
  | Stage_out -> "stage-out"
  | Stage_in -> "stage-in"

let pp_step fmt s =
  Format.fprintf fmt "#%d %s: %s %s -> %s (%a)" s.id (kind_name s.kind) (Vm.name s.vm)
    s.src.Node.name s.dst.Node.name Units.pp_bytes s.bytes

let pp fmt t =
  Format.fprintf fmt "@[<v>plan: %d steps, %d deps" (length t) (dep_count t);
  List.iter
    (fun s ->
      Format.fprintf fmt "@,  %a" pp_step s;
      match dep_ids t s with
      | [] -> ()
      | ids ->
        Format.fprintf fmt " after {%s}" (String.concat "," (List.map string_of_int ids)))
    (steps t);
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Plan construction from a placement assignment. *)

type mover = { mvm : Vm.t; msrc : Node.t; mdst : Node.t; mbytes : float }

(* Find one dependency cycle among the movers, ignoring staged movers (a
   staged mover's first step has no dependencies, so paths through it are
   already broken). Returns the cycle as a list in which each member
   depends on the next, cyclically. *)
let find_cycle ~edges ~staged m =
  let color = Array.make m 0 in
  let parent = Array.make m (-1) in
  let cycle = ref None in
  let rec dfs i =
    if !cycle = None then begin
      color.(i) <- 1;
      List.iter
        (fun j ->
          if (not staged.(j)) && !cycle = None then
            if color.(j) = 1 then begin
              let rec collect k acc = if k = j then j :: acc else collect parent.(k) (k :: acc) in
              cycle := Some (collect i [])
            end
            else if color.(j) = 0 then begin
              parent.(j) <- i;
              dfs j
            end)
        edges.(i);
      color.(i) <- 2
    end
  in
  for i = 0 to m - 1 do
    if (not staged.(i)) && color.(i) = 0 then dfs i
  done;
  !cycle

let of_assignment cluster ~vms ~dst_of ?(staging = []) ?bytes_of () =
  let bytes_of =
    Option.value bytes_of ~default:(fun vm -> Memory.nonzero_bytes (Vm.memory vm))
  in
  let movers =
    List.filter_map
      (fun vm ->
        let src = Vm.host vm and dst = dst_of vm in
        if src.Node.id = dst.Node.id then None
        else Some { mvm = vm; msrc = src; mdst = dst; mbytes = bytes_of vm })
      vms
  in
  let movers = Array.of_list movers in
  let m = Array.length movers in
  (* Which movers currently occupy each node. Non-moving VMs never vacate,
     so they impose no ordering (packing onto an occupied node is the
     consolidation case, not a conflict). *)
  let occupants = Hashtbl.create 16 in
  Array.iteri
    (fun i mv ->
      let cur = Option.value (Hashtbl.find_opt occupants mv.msrc.Node.id) ~default:[] in
      Hashtbl.replace occupants mv.msrc.Node.id (i :: cur))
    movers;
  (* edges.(i) = movers i waits for (they occupy i's destination). *)
  let edges =
    Array.mapi
      (fun i mv ->
        Option.value (Hashtbl.find_opt occupants mv.mdst.Node.id) ~default:[]
        |> List.filter (fun j -> j <> i)
        |> List.sort compare)
      movers
  in
  (* Staging pool: free nodes that neither host a VM nor receive one. *)
  let busy = Hashtbl.create 16 in
  List.iter (fun vm -> Hashtbl.replace busy (Vm.host vm).Node.id ()) vms;
  Array.iter (fun mv -> Hashtbl.replace busy mv.mdst.Node.id ()) movers;
  let pool =
    ref
      (staging
      |> List.filter (fun (n : Node.t) -> not (Hashtbl.mem busy n.Node.id))
      |> List.sort_uniq (fun (a : Node.t) (b : Node.t) -> compare a.Node.id b.Node.id))
  in
  let staged = Array.make m false in
  let stage_node = Array.make m None in
  let overcommits = ref 0 in
  (* Break every conflict cycle, preferring the cheapest member. *)
  let continue = ref true in
  while !continue do
    match find_cycle ~edges ~staged m with
    | None -> continue := false
    | Some cycle ->
      let pick =
        List.fold_left
          (fun best i ->
            match best with
            | Some b
              when movers.(b).mbytes < movers.(i).mbytes
                   || (movers.(b).mbytes = movers.(i).mbytes && b < i) -> best
            | _ -> Some i)
          None cycle
        |> Option.get
      in
      (match !pool with
      | s :: rest ->
        pool := rest;
        staged.(pick) <- true;
        stage_node.(pick) <- Some s
      | [] ->
        (* No refuge: drop the picked member's in-cycle edge and accept a
           transient overcommit of its destination. *)
        let rec next_of = function
          | a :: b :: _ when a = pick -> b
          | [ a ] when a = pick -> List.hd cycle
          | _ :: rest -> next_of rest
          | [] -> assert false
        in
        let dropped = next_of cycle in
        edges.(pick) <- List.filter (fun j -> j <> dropped) edges.(pick);
        incr overcommits)
  done;
  (* Materialise steps and edges. *)
  let plan = create () in
  let first_step = Array.make m None in
  let arriving_step = Array.make m None in
  Array.iteri
    (fun i mv ->
      if staged.(i) then begin
        let s = Option.get stage_node.(i) in
        let out =
          add_step plan ~vm:mv.mvm ~src:mv.msrc ~dst:s ~bytes:mv.mbytes ~kind:Stage_out ()
        in
        let in_ =
          add_step plan ~vm:mv.mvm ~src:s ~dst:mv.mdst ~bytes:mv.mbytes ~kind:Stage_in ()
        in
        add_dep plan ~before:out ~after:in_;
        first_step.(i) <- Some out;
        arriving_step.(i) <- Some in_
      end
      else begin
        let st = add_step plan ~vm:mv.mvm ~src:mv.msrc ~dst:mv.mdst ~bytes:mv.mbytes () in
        first_step.(i) <- Some st;
        arriving_step.(i) <- Some st
      end)
    movers;
  Array.iteri
    (fun i waits_for ->
      List.iter
        (fun j ->
          add_dep plan
            ~before:(Option.get first_step.(j))
            ~after:(Option.get arriving_step.(i)))
        waits_for)
    edges;
  let probes = Cluster.probes cluster in
  if Probe.active probes then begin
    Probe.emit probes
      (Probe.Plan_built
         { steps = length plan; deps = dep_count plan; acyclic = is_acyclic plan;
           staged = Array.fold_left (fun n b -> if b then n + 1 else n) 0 staged;
           overcommits = !overcommits });
    (* Plan building is pure bookkeeping — no simulated time passes — so
       the span is a zero-duration marker on the planner track. *)
    Probe.emit probes
      (Probe.Span_note
         { name = "plan-build"; cat = "planner"; proc = "planner"; thread = "plan";
           start = Sim.now (Cluster.sim cluster);
           args = [ ("steps", string_of_int (length plan)) ] })
  end;
  plan
