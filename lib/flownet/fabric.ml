open Ninja_engine

type link = {
  id : int;
  name : string;
  capacity : float;
  num : floats;
  mutable unfrozen : int; (* scratch for the progressive-filling pass *)
  (* Live flows crossing this link (fid -> task), maintained by the
     solver from the rated set's change log. *)
  flows_on : (int, info Rated.task) Hashtbl.t;
  (* Epoch stamp: equal to the state's epoch iff this link is already in
     the current rerate's affected set. *)
  mutable mark : int;
  mutable removed : bool;
  mutable pending : int; (* the readers holding this link pending, one bit each *)
}

(* An all-float record, which OCaml stores unboxed, so writing either
   field allocates nothing. *)
and floats = {
  mutable residual : float; (* scratch for the progressive-filling pass *)
  mutable util : float; (* [link_utilization]'s memo; nan until summed *)
}

(* A flow's route is dropped when it leaves, so a finished flow that a
   caller still holds keeps no retired link alive. *)
and info = { fid : int; mutable route : link list; mutable fmark : int }

(* One consumer of the change feed: the links re-rates covered since it
   last drained, each once. *)
type reader = {
  set : info Rated.t; (* for the read barrier *)
  feed : feed;
  bit : int; (* this reader's bit in each link's [pending] *)
  born : int; (* ids below it were added before the reader *)
  mutable queue : link array; (* pending links, first [n] *)
  mutable n : int;
  mutable released : bool;
}

and feed = {
  mutable readers : reader list; (* oldest first *)
  mutable bits : int; (* the bits the readers hold *)
}

type flow = info Rated.task

(* The re-solve's scratch lives here and is reused, so a re-rate
   allocates little it does not keep: the affected links in the order
   they were found (the work queue, first [n_links]) and the affected
   flows (first [n_flows]) with a freeze flag each. *)
type state = {
  mutable freeze_log : int list; (* bottleneck ids of the last solve, reversed *)
  mutable epoch : int; (* bumped per rerate; validates marks *)
  changes : feed;
  mutable links : link array;
  mutable n_links : int;
  mutable flows : flow array;
  mutable frozen : bool array;
  mutable n_flows : int;
  apply : info Rated.change -> unit; (* [apply] and [visit] bound to this state *)
  visit : int -> flow -> unit;
}

type t = {
  set : info Rated.t;
  state : state;
  mutable live : link array; (* the live links, first [n_live], in id order *)
  mutable n_live : int;
  mutable next_link : int; (* ids are never reused, so tie-breaks survive removals *)
  mutable next_fid : int;
}

let rec crosses id = function [] -> false | l :: rest -> l.id = id || crosses id rest

let rec count_unfrozen = function
  | [] -> ()
  | l :: rest ->
    l.unfrozen <- l.unfrozen + 1;
    count_unfrozen rest

let rec take_share fair = function
  | [] -> ()
  | l :: rest ->
    l.num.residual <- Float.max 0.0 (l.num.residual -. fair);
    l.unfrozen <- l.unfrozen - 1;
    take_share fair rest

(* Progressive filling (max–min fairness) over a closed subproblem: the
   affected links are exactly the union of the affected flows' routes.
   Repeatedly pick the bottleneck link (smallest fair share = residual /
   unfrozen flows), freeze the unfrozen flows crossing it at that share,
   subtract their rate along their whole routes, and repeat until every
   flow is frozen. The bottleneck is the lexicographic minimum of (fair
   share, link id): a strictly smaller fair share wins, an exact
   floating-point tie goes to the smaller link id. It is a total order,
   so neither the freeze order nor any rate depends on the order of the
   links or of the flows: every flow frozen in one round takes the same
   share, and each link subtracts that share once per such flow. *)
let solve st =
  let links = st.links and n_links = st.n_links in
  let flows = st.flows and frozen = st.frozen and n = st.n_flows in
  for i = 0 to n_links - 1 do
    let l = links.(i) in
    l.num.residual <- l.capacity;
    l.unfrozen <- 0
  done;
  for i = 0 to n - 1 do
    frozen.(i) <- false;
    count_unfrozen (Rated.payload flows.(i)).route
  done;
  let remaining = ref n in
  while !remaining > 0 do
    let best = ref (-1) and best_fair = ref 0.0 in
    for i = 0 to n_links - 1 do
      let l = links.(i) in
      if l.unfrozen > 0 then begin
        let fair = Float.max 0.0 (l.num.residual /. float_of_int l.unfrozen) in
        if
          !best < 0
          || not (!best_fair < fair || (!best_fair = fair && links.(!best).id < l.id))
        then begin
          best := i;
          best_fair := fair
        end
      end
    done;
    (* Every unfrozen flow crosses at least one link, which therefore
       has unfrozen > 0: a bottleneck exists. *)
    assert (!best >= 0);
    let b = links.(!best) and fair = !best_fair in
    st.freeze_log <- b.id :: st.freeze_log;
    for i = 0 to n - 1 do
      if not frozen.(i) then begin
        let route = (Rated.payload flows.(i)).route in
        if crosses b.id route then begin
          frozen.(i) <- true;
          Rated.set_rate flows.(i) fair;
          decr remaining;
          take_share fair route
        end
      end
    done;
    (* The round froze every unfrozen flow on the bottleneck. *)
    assert (b.unfrozen = 0)
  done

let new_link id name capacity =
  {
    id;
    name;
    capacity;
    num = { residual = 0.0; util = 0.0 };
    unfrozen = 0;
    flows_on = Hashtbl.create 4;
    mark = 0;
    removed = false;
    pending = 0;
  }

(* Fills the vacant slots of the live set and of the pending queues, so
   neither keeps a retired private link alive. *)
let no_link = new_link (-1) "" 1.0

(* [a] with [l] stored after its first [n] links, grown if full. *)
let append a n l =
  let a =
    if n < Array.length a then a
    else begin
      let grown = Array.make (max 16 (2 * n)) no_link in
      Array.blit a 0 grown 0 n;
      grown
    end
  in
  a.(n) <- l;
  a

(* Add a link to a reader's pending set, once until its next drain. *)
let push r l =
  if l.pending land r.bit = 0 then begin
    l.pending <- l.pending lor r.bit;
    r.queue <- append r.queue r.n l;
    r.n <- r.n + 1
  end

(* Recursive rather than [List.iter], so a re-rate fans out without
   allocating a closure. *)
let rec record readers l =
  match readers with
  | [] -> ()
  | r :: rest ->
    push r l;
    record rest l

(* A link retired while pending leaves the readers it is newer than: it
   now carries nothing, and a burst of short-lived private links must not
   pile up between two drains. A reader newer than the link (a flow
   monitor sampling it) keeps it, so it sees the link's last reading go
   to zero. The newest pending links sit at the queue's end, where the
   search starts. *)
let rec forget readers l =
  match readers with
  | [] -> ()
  | r :: rest ->
    if l.pending land r.bit <> 0 && l.id >= r.born then begin
      let i = ref (r.n - 1) in
      while r.queue.(!i) != l do
        decr i
      done;
      r.n <- r.n - 1;
      r.queue.(!i) <- r.queue.(r.n);
      r.queue.(r.n) <- no_link;
      l.pending <- l.pending land lnot r.bit
    end;
    forget rest l

(* Stamp [l] with the current epoch and queue it, once per rerate. *)
let seed st l =
  if l.mark <> st.epoch then begin
    l.mark <- st.epoch;
    st.links <- append st.links st.n_links l;
    st.n_links <- st.n_links + 1
  end

let rec seed_route st = function
  | [] -> ()
  | l :: rest ->
    seed st l;
    seed_route st rest

let rec join st fid fl = function
  | [] -> ()
  | l :: rest ->
    Hashtbl.replace l.flows_on fid fl;
    seed st l;
    join st fid fl rest

let rec leave st fid = function
  | [] -> ()
  | l :: rest ->
    Hashtbl.remove l.flows_on fid;
    seed st l;
    leave st fid rest

(* Sync the per-link flow registries — each membership delta arrives
   exactly once — and seed the affected set with every touched link. *)
let apply st = function
  | Rated.Joined fl ->
    let inf = Rated.payload fl in
    join st inf.fid fl inf.route
  | Rated.Left fl ->
    let inf = Rated.payload fl in
    leave st inf.fid inf.route;
    inf.route <- []

(* Every flow on an affected link is affected, and every link of an
   affected flow is affected. *)
let visit st _ fl =
  let inf = Rated.payload fl in
  if inf.fmark <> st.epoch then begin
    inf.fmark <- st.epoch;
    st.flows.(st.n_flows) <- fl;
    st.n_flows <- st.n_flows + 1;
    seed_route st inf.route
  end

(* The incremental solve: flows partition into connected components of
   the link-sharing graph, and components are independent — freezing a
   flow never touches another component's links. So only the
   component(s) reachable from this change need re-solving; every other
   flow's rate is already exactly what a solve of the whole fabric would
   assign (see DESIGN). *)
let rerate st set =
  st.freeze_log <- [];
  st.epoch <- st.epoch + 1;
  st.n_links <- 0;
  Rated.iter_changes set st.apply;
  if st.n_links > 0 then begin
    (* The affected flows are live, so they fit in the set's length. *)
    let n = Rated.length set in
    if Array.length st.flows < n then begin
      st.flows <- Array.make (2 * n) (Rated.filler set);
      st.frozen <- Array.make (2 * n) false
    end;
    st.n_flows <- 0;
    (* Close over the seeds, in the order they are found: the resulting
       subproblem is self-contained. *)
    let i = ref 0 in
    while !i < st.n_links do
      let l = st.links.(!i) in
      (* Every utilisation this rerate can change is on an affected link
         — including a component whose last flow just left — so these are
         the links whose memo goes stale and that the readers must see. *)
      l.num.util <- Float.nan;
      record st.changes.readers l;
      Hashtbl.iter st.visit l.flows_on;
      incr i
    done;
    if st.n_flows > 0 then solve st;
    (* Keep no retired link and no finished flow alive. *)
    for i = 0 to st.n_links - 1 do
      st.links.(i) <- no_link
    done;
    for i = 0 to st.n_flows - 1 do
      st.flows.(i) <- Rated.filler set
    done
  end

let no_info = { fid = -1; route = []; fmark = 0 }

let create sim =
  let rec state =
    {
      freeze_log = [];
      epoch = 0;
      changes = { readers = []; bits = 0 };
      links = [||];
      n_links = 0;
      flows = [||];
      frozen = [||];
      n_flows = 0;
      apply = (fun change -> apply state change);
      visit = (fun fid fl -> visit state fid fl);
    }
  in
  {
    set = Rated.create sim ~name:"fabric" ~filler:no_info ~log:true ~rerate:(rerate state);
    state;
    live = [||];
    n_live = 0;
    next_link = 0;
    next_fid = 0;
  }

(* The read barriers: the freeze log, the per-link registries and memos
   and the pending sets are the policy's, so a reader first runs a policy
   its set's last change left pending. *)
let last_bottlenecks t =
  Rated.refresh t.set;
  List.rev t.state.freeze_log

let rerates t = Rated.rerates t.set

let add_link t ~name ~capacity =
  if not (capacity > 0.0 && Float.is_finite capacity) then
    invalid_arg "Fabric.add_link: capacity must be positive and finite";
  let id = t.next_link in
  t.next_link <- id + 1;
  let l = new_link id name capacity in
  t.live <- append t.live t.n_live l;
  t.n_live <- t.n_live + 1;
  l

let remove_link t l =
  Rated.refresh t.set;
  if Hashtbl.length l.flows_on > 0 then
    invalid_arg ("Fabric.remove_link: a flow still crosses " ^ l.name);
  if not l.removed then begin
    l.removed <- true;
    if l.pending <> 0 then forget t.state.changes.readers l;
    (* The links after it close up, keeping id order; a retired private
       link is nearly always among the newest, at the end. *)
    let i = ref (t.n_live - 1) in
    while t.live.(!i) != l do
      decr i
    done;
    t.n_live <- t.n_live - 1;
    Array.blit t.live (!i + 1) t.live !i (t.n_live - !i);
    t.live.(t.n_live) <- no_link
  end

let links t = List.init t.n_live (Array.get t.live)

(* The bits a reader can take: every bit of a non-negative int. *)
let reader t =
  let feed = t.state.changes in
  let free = max_int land lnot feed.bits in
  if free = 0 then invalid_arg "Fabric.reader: every reader bit is taken";
  let r =
    {
      set = t.set;
      feed;
      bit = free land -free;
      born = t.next_link;
      queue = Array.make (max 16 t.n_live) no_link;
      n = 0;
      released = false;
    }
  in
  feed.bits <- feed.bits lor r.bit;
  feed.readers <- feed.readers @ [ r ];
  for i = 0 to t.n_live - 1 do
    push r t.live.(i)
  done;
  r

let readers t = List.length t.state.changes.readers

let release r =
  if not r.released then begin
    r.released <- true;
    for i = 0 to r.n - 1 do
      r.queue.(i).pending <- r.queue.(i).pending land lnot r.bit
    done;
    r.queue <- [||];
    r.n <- 0;
    r.feed.readers <- List.filter (fun x -> x != r) r.feed.readers;
    r.feed.bits <- r.feed.bits land lnot r.bit
  end

let drain (r : reader) f =
  Rated.refresh r.set;
  let n = r.n in
  r.n <- 0;
  for i = 0 to n - 1 do
    let l = r.queue.(i) in
    r.queue.(i) <- no_link;
    l.pending <- l.pending land lnot r.bit;
    f l
  done

let link_name l = l.name

let link_id l = l.id

let link_capacity l = l.capacity

let rec check_distinct = function
  | [] -> ()
  | l :: rest ->
    if crosses l.id rest then invalid_arg "Fabric: route contains duplicate links";
    check_distinct rest

let check_route route =
  if route = [] then invalid_arg "Fabric: empty route";
  if List.exists (fun l -> l.removed) route then invalid_arg "Fabric: route crosses a removed link";
  check_distinct route

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

(* The registry holds exactly the live flows crossing [l]. Summing in
   table order is reproducible: hashing is unseeded and the table's
   layout is a pure function of the simulation's (deterministic)
   insert/remove history, so replays and [-j N] runs see the same order. *)
let resum l =
  let u =
    if Hashtbl.length l.flows_on = 0 then 0.0
    else begin
      let total = ref 0.0 in
      Hashtbl.iter (fun _ fl -> total := !total +. Rated.rate fl) l.flows_on;
      !total
    end
  in
  l.num.util <- u;
  u

(* Summed once per re-rate that covers the link, which is exact: the
   registry and its flows' rates change only inside such a re-rate, and
   that re-rate resets the memo to nan. Inlined, so a caller reads the
   kept sum without boxing it. *)
let[@inline] link_utilization t l =
  Rated.refresh t.set;
  let u = l.num.util in
  if Float.is_nan u then resum l else u
