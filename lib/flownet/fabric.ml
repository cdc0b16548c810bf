open Ninja_engine

type link = {
  id : int;
  name : string;
  mutable capacity : float;
  (* Scratch fields for the progressive-filling pass. *)
  mutable residual : float;
  mutable unfrozen : int;
  (* Live flows crossing this link (fid -> task), maintained by the
     incremental solver from the rated set's change log. Stays empty under
     the [Global] reference solver. *)
  flows_on : (int, info Rated.task) Hashtbl.t;
  (* Epoch stamp: equal to the state's epoch iff this link is already in
     the current rerate's affected set. Replaces a per-rerate hashtable so
     a small-fabric rerate allocates nothing beyond the work queue. *)
  mutable mark : int;
  mutable removed : bool;
  mutable slot : int; (* index in [state.resolved]; -1 when not pending *)
}

and info = { fid : int; route : link list; mutable fmark : int }

type solver = Incremental | Global

type state = {
  solver : solver;
  mutable dirty_links : link list; (* capacity changes since last rerate *)
  mutable freeze_log : int list; (* bottleneck ids of the last solve, reversed *)
  mutable epoch : int; (* bumped per incremental rerate; validates marks *)
  mutable rev_links : link list; (* newest first; removed links linger until [links] *)
  mutable live_links : link list option; (* [links]' answer, until a link is added or removed *)
  mutable watched : bool; (* a consumer drains [resolved] *)
  mutable resolved : link array; (* links re-solved since the last drain, first [n_resolved] *)
  mutable n_resolved : int;
}

type t = {
  set : info Rated.t;
  state : state;
  mutable next_link : int; (* ids are never reused, so tie-breaks survive removals *)
  mutable next_fid : int;
}

type flow = info Rated.task

(* Bottleneck choice: lexicographic minimum of (fair share, link id). A
   strictly smaller fair share wins; an exact floating-point tie goes to
   the smaller link id. Shared by both solvers, so they freeze links in
   the same order and a replay is deterministic. *)
let better (fair, l) acc =
  match acc with
  | Some (bfair, bl) when bfair < fair || (bfair = fair && bl.id < l.id) -> acc
  | _ -> Some (fair, l)

(* Progressive filling (max–min fairness) over a closed subproblem:
   [links] is exactly the union of the [flows]' routes, and [flows] are in
   insertion (fid) order — the order the global solve scans them in, so a
   component-local solve performs the identical arithmetic. Repeatedly
   pick the bottleneck link (smallest fair share = residual / unfrozen
   flows), freeze the unfrozen flows crossing it at that share, subtract
   their rate along their whole routes, and repeat until every flow is
   frozen. *)
let solve_subset state flows links =
  let n = Array.length flows in
  let routes = Array.map (fun fl -> (Rated.payload fl).route) flows in
  List.iter
    (fun l ->
      l.residual <- l.capacity;
      l.unfrozen <- 0)
    links;
  Array.iter (fun route -> List.iter (fun l -> l.unfrozen <- l.unfrozen + 1) route) routes;
  let frozen = Array.make n false in
  let remaining = ref n in
  while !remaining > 0 do
    let bottleneck =
      List.fold_left
        (fun acc l ->
          if l.unfrozen = 0 then acc
          else better (Float.max 0.0 (l.residual /. float_of_int l.unfrozen), l) acc)
        None links
    in
    match bottleneck with
    | None ->
      (* Unreachable: every unfrozen flow crosses at least one link that
         therefore has unfrozen > 0. *)
      assert false
    | Some (fair, bottleneck_link) ->
      state.freeze_log <- bottleneck_link.id :: state.freeze_log;
      for i = 0 to n - 1 do
        if (not frozen.(i)) && List.exists (fun l -> l.id = bottleneck_link.id) routes.(i)
        then begin
          frozen.(i) <- true;
          Rated.set_rate flows.(i) fair;
          decr remaining;
          List.iter
            (fun l ->
              l.residual <- Float.max 0.0 (l.residual -. fair);
              l.unfrozen <- l.unfrozen - 1)
            routes.(i)
        end
      done
  done

(* Rebuilt at most once per add/remove, however often observers sweep. *)
let live_links state =
  match state.live_links with
  | Some links -> links
  | None ->
    state.rev_links <- List.filter (fun l -> not l.removed) state.rev_links;
    let links = List.rev state.rev_links in
    state.live_links <- Some links;
    links

(* Fills the pending set's vacant slots, so it never keeps a retired
   private link alive. *)
let no_link =
  {
    id = -1;
    name = "";
    capacity = 1.0;
    residual = 0.0;
    unfrozen = 0;
    flows_on = Hashtbl.create 1;
    mark = 0;
    removed = true;
    slot = -1;
  }

(* Add a link to the watcher's pending set, once until the next drain. *)
let record state l =
  if l.slot < 0 then begin
    if state.n_resolved = Array.length state.resolved then begin
      let grown = Array.make (max 16 (2 * state.n_resolved)) no_link in
      Array.blit state.resolved 0 grown 0 state.n_resolved;
      state.resolved <- grown
    end;
    l.slot <- state.n_resolved;
    state.resolved.(state.n_resolved) <- l;
    state.n_resolved <- state.n_resolved + 1
  end

(* A retired link carries nothing and is no longer live, so the watcher
   need not see it: fill its slot with the last pending link. *)
let unrecord state l =
  if l.slot >= 0 then begin
    let last = state.n_resolved - 1 in
    let moved = state.resolved.(last) in
    state.resolved.(l.slot) <- moved;
    moved.slot <- l.slot;
    state.resolved.(last) <- no_link;
    state.n_resolved <- last;
    l.slot <- -1
  end

(* Reference solver: re-solve the whole fabric from scratch. *)
let global_rerate state set =
  if state.watched then List.iter (record state) (live_links state);
  let flows = Array.init (Rated.length set) (Rated.get set) in
  if Array.length flows > 0 then begin
    let links =
      let tbl = Hashtbl.create 16 in
      Array.iter
        (fun fl ->
          List.iter
            (fun l -> if not (Hashtbl.mem tbl l.id) then Hashtbl.add tbl l.id l)
            (Rated.payload fl).route)
        flows;
      Hashtbl.fold (fun _ l acc -> l :: acc) tbl []
    in
    solve_subset state flows links
  end

(* Incremental solver: flows partition into connected components of the
   link-sharing graph, and components are independent — freezing a flow
   never touches another component's links. So only the component(s)
   reachable from this change need re-solving; every other flow's rate is
   already exactly what a global re-solve would assign (see DESIGN). *)
let incremental_rerate state set =
  let deltas = Rated.changes set in
  let dirty = state.dirty_links in
  state.dirty_links <- [];
  state.epoch <- state.epoch + 1;
  let epoch = state.epoch in
  (* A link enters the work queue at most once per rerate: its mark is
     stamped with the current epoch on enqueue. *)
  let queue = Queue.create () in
  let seed l =
    if l.mark <> epoch then begin
      l.mark <- epoch;
      Queue.add l queue
    end
  in
  (* Sync the per-link flow registries — each membership delta arrives
     exactly once — and seed the affected set with every touched link. *)
  List.iter
    (fun delta ->
      match delta with
      | Rated.Joined fl ->
        let { fid; route; _ } = Rated.payload fl in
        List.iter
          (fun l ->
            Hashtbl.replace l.flows_on fid fl;
            seed l)
          route
      | Rated.Left fl ->
        let { fid; route; _ } = Rated.payload fl in
        List.iter
          (fun l ->
            Hashtbl.remove l.flows_on fid;
            seed l)
          route)
    deltas;
  List.iter seed dirty;
  if not (Queue.is_empty queue) then begin
    (* Close over the seeds: every flow on an affected link is affected,
       and every link of an affected flow is affected — the resulting
       subproblem is self-contained. *)
    let aff_links = ref [] in
    let aff_flows = ref [] in
    while not (Queue.is_empty queue) do
      let l = Queue.pop queue in
      aff_links := l :: !aff_links;
      Hashtbl.iter
        (fun _ fl ->
          let inf = Rated.payload fl in
          if inf.fmark <> epoch then begin
            inf.fmark <- epoch;
            aff_flows := fl :: !aff_flows;
            List.iter seed inf.route
          end)
        l.flows_on
    done;
    (* Every utilisation or capacity this rerate can change is on an
       affected link — including a component whose last flow just left
       and a re-capacitated link no flow crosses. *)
    if state.watched then List.iter (record state) !aff_links;
    let flows =
      List.sort (fun a b -> compare (Rated.payload a).fid (Rated.payload b).fid) !aff_flows
      |> Array.of_list
    in
    if Array.length flows > 0 then solve_subset state flows !aff_links
  end

let rerate state set =
  state.freeze_log <- [];
  match state.solver with
  | Global -> global_rerate state set
  | Incremental -> incremental_rerate state set

let create ?(solver = Incremental) sim =
  let state =
    {
      solver;
      dirty_links = [];
      freeze_log = [];
      epoch = 0;
      rev_links = [];
      live_links = None;
      watched = false;
      resolved = [||];
      n_resolved = 0;
    }
  in
  { set = Rated.create sim ~name:"fabric" ~rerate:(rerate state); state; next_link = 0; next_fid = 0 }

(* The read barriers: the freeze log, the per-link registries and the
   pending set are the policy's, so a reader first runs a policy its
   set's last change left pending. *)
let last_bottlenecks t =
  Rated.refresh t.set;
  List.rev t.state.freeze_log

let rerates t = Rated.rerates t.set

let add_link t ~name ~capacity =
  if not (capacity > 0.0 && Float.is_finite capacity) then
    invalid_arg "Fabric.add_link: capacity must be positive and finite";
  let id = t.next_link in
  t.next_link <- id + 1;
  let l =
    {
      id;
      name;
      capacity;
      residual = 0.0;
      unfrozen = 0;
      flows_on = Hashtbl.create 4;
      mark = 0;
      removed = false;
      slot = -1;
    }
  in
  t.state.rev_links <- l :: t.state.rev_links;
  t.state.live_links <- None;
  l

let crosses l fl = List.exists (fun l' -> l'.id = l.id) (Rated.payload fl).route

let remove_link t l =
  Rated.refresh t.set;
  let crossed =
    match t.state.solver with
    | Incremental -> Hashtbl.length l.flows_on > 0
    | Global -> List.exists (crosses l) (Rated.active t.set)
  in
  if crossed then invalid_arg ("Fabric.remove_link: a flow still crosses " ^ l.name);
  if not l.removed then begin
    l.removed <- true;
    unrecord t.state l;
    t.state.live_links <- None
  end

let links t = live_links t.state

let watch t =
  let state = t.state in
  if state.watched then invalid_arg "Fabric.watch: the fabric already has a watcher";
  state.watched <- true;
  List.iter (record state) (live_links state)

let unwatch t =
  let state = t.state in
  state.watched <- false;
  for i = 0 to state.n_resolved - 1 do
    state.resolved.(i).slot <- -1
  done;
  state.resolved <- [||];
  state.n_resolved <- 0

let drain_resolved t f =
  Rated.refresh t.set;
  let state = t.state in
  let n = state.n_resolved in
  state.n_resolved <- 0;
  for i = 0 to n - 1 do
    let l = state.resolved.(i) in
    state.resolved.(i) <- no_link;
    l.slot <- -1;
    f l
  done

let link_name l = l.name

let link_id l = l.id

let link_capacity l = l.capacity

let set_link_capacity t l c =
  if not (c > 0.0 && Float.is_finite c) then
    invalid_arg "Fabric.set_link_capacity: capacity must be positive and finite";
  l.capacity <- c;
  (match t.state.solver with
  | Incremental -> t.state.dirty_links <- l :: t.state.dirty_links
  | Global -> ());
  Rated.kick t.set

let check_route route =
  if route = [] then invalid_arg "Fabric: empty route";
  if List.exists (fun l -> l.removed) route then invalid_arg "Fabric: route crosses a removed link";
  let ids = List.map (fun l -> l.id) route in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Fabric: route contains duplicate links"

let start t ~route ~bytes =
  check_route route;
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  Rated.add t.set ~payload:{ fid; route; fmark = 0 } ~work:bytes

let await fl = Rated.await fl

let transfer t ~route ~bytes = await (start t ~route ~bytes)

let cancel t fl = Rated.cancel t.set fl

let rate fl = Rated.rate fl

let is_done fl = Rated.is_done fl

let active_flows t = Rated.length t.set

let link_utilization t l =
  Rated.refresh t.set;
  match t.state.solver with
  | Incremental ->
    (* The registry holds exactly the live flows crossing [l]. Summing in
       table order is reproducible: hashing is unseeded and the table's
       layout is a pure function of the simulation's (deterministic)
       insert/remove history, so replays and [-j N] runs see the same
       order. The flow monitor polls every link on every tick and most
       carry nothing, so an idle link answers without allocating. *)
    if Hashtbl.length l.flows_on = 0 then 0.0
    else begin
      let total = ref 0.0 in
      Hashtbl.iter (fun _ fl -> total := !total +. Rated.rate fl) l.flows_on;
      !total
    end
  | Global ->
    let total = ref 0.0 in
    for i = 0 to Rated.length t.set - 1 do
      let fl = Rated.get t.set i in
      if crosses l fl then total := !total +. Rated.rate fl
    done;
    !total
