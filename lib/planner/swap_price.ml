open Ninja_flownet
open Ninja_hardware
open Ninja_vmm

type mover = { vm : Vm.t; src : Node.t; host : Node.t; bytes : float option }

(* A table prices the movers and traffic of its last [load], and keeps
   across loads what does not depend on them: the node slots, the
   directed node-pair costs and each mover's move row.

   Per load, everything a pair's price reads is resolved once: each
   traffic entry's endpoints (a mover, or the slot of a fixed node) and
   each mover's incident entries in traffic order. A pair then sums
   exactly the terms, in exactly the order, that filtering the whole
   matrix would give it.

   Kept state, and what invalidates it:
   - [pair]: [Cost_model.pair_cost] of a slot pair, computed on first use.
     It reads the residuals of the route's links, so it is forgotten when
     [drain] sees a re-rate cover one of them ([crossing] lists each
     computed cell under every link of its route, once).
   - [thin]: the capacity of the thinnest link on the route from a
     mover's source to a slot, kept while the mover's source holds.
   - [move]: [Cost_model.move_seconds] of a mover to a slot, kept while
     its source, byte count and the VM's zero and dirty bytes hold.
   Routes and capacities are fixed while [Cluster.route_epoch] holds; when
   it moves, all three are forgotten. A table that is never drained lives
   within one instant, so it keeps neither [crossing] nor [thin]; its
   first drain forgets the pair costs it has and starts both. *)
type t = {
  cluster : Cluster.t;
  span : int;  (* [Cluster.node_count], above every slot: cell (a, b)'s key is [a * span + b] *)
  mutable epoch : int;  (* the [Cluster.route_epoch] the kept state was read at *)
  slot_of : int array;  (* node id -> slot, -1 before its first use *)
  mutable nodes : Node.t array;  (* slot -> node, the first [k] *)
  mutable ib : bool array;  (* slot -> its node has InfiniBand *)
  mutable k : int;
  mutable cap : int;  (* the slots [pair], [thin] and [move] have room for *)
  mutable pair : Float.Array.t;  (* slot x slot -> pair cost; nan when not known *)
  mutable watched : bool;  (* drained at least once *)
  mutable listed : Bytes.t;  (* slot x slot -> 1 once on [crossing]; watched only *)
  mutable crossing : int list array;  (* link id -> keys of the cells its route crosses *)
  mutable row_src : int array;  (* mover -> the source slot its row was filled from *)
  mutable row_mem : Float.Array.t;  (* mover -> byte count, zero bytes, dirty bytes *)
  mutable thin : Float.Array.t;
      (* mover x slot -> thinnest capacity, nan when not known; watched only *)
  mutable move : Float.Array.t;  (* mover x slot -> seconds; nan when not known *)
  mutable env : Cost_model.env;
  mutable movers : mover array;
  mutable index : (string, int) Hashtbl.t;  (* mover name -> mover *)
  mutable traffic : Cost_model.traffic;  (* the matrix the entries below come from *)
  mutable entries : (string * string * float) array;
  mutable host : int array;  (* mover -> slot of its current or proposed host *)
  mutable src : int array;  (* mover -> slot of its source *)
  mutable ex : int array;  (* entry -> mover at each endpoint, -1 for none *)
  mutable ey : int array;
  mutable sx : int array;  (* entry -> slot of each non-mover endpoint, -1 unresolved *)
  mutable sy : int array;
  mutable rate : Float.Array.t;
  mutable incident : int array array;  (* mover -> its entries, ascending *)
  mutable bounded : bool;  (* every rate is >= 0, so [best] may skip pairs by their bound *)
  mutable priced : int;  (* pairs [best] has priced *)
  mutable pair_costs : int;  (* pair costs computed *)
}

let create cluster =
  let span = Cluster.node_count cluster in
  {
    cluster;
    span;
    epoch = Cluster.route_epoch cluster;
    slot_of = Array.make span (-1);
    nodes = [||];
    ib = [||];
    k = 0;
    cap = 0;
    pair = Float.Array.create 0;
    watched = false;
    listed = Bytes.empty;
    crossing = [||];
    row_src = [||];
    row_mem = Float.Array.create 0;
    thin = Float.Array.create 0;
    move = Float.Array.create 0;
    env = Cost_model.env cluster ();
    movers = [||];
    index = Hashtbl.create 0;
    traffic = [];
    entries = [||];
    host = [||];
    src = [||];
    ex = [||];
    ey = [||];
    sx = [||];
    sy = [||];
    rate = Float.Array.create 0;
    incident = [||];
    bounded = true;
    priced = 0;
    pair_costs = 0;
  }

let slot p (node : Node.t) =
  let s = p.slot_of.(node.Node.id) in
  if s >= 0 then s
  else begin
    let s = p.k in
    if s = Array.length p.nodes then begin
      let room = max 8 (2 * s) in
      let grow a = Array.init room (fun i -> if i < s then a.(i) else a.(0)) in
      p.nodes <- (if s = 0 then Array.make room node else grow p.nodes);
      p.ib <- (if s = 0 then Array.make room false else grow p.ib)
    end;
    p.nodes.(s) <- node;
    p.ib.(s) <- Node.has_ib node;
    p.slot_of.(node.Node.id) <- s;
    p.k <- s + 1;
    s
  end

(* Room for [p.k] slots: a table that outlives its load doubles, so the
   copies stay few; a new one takes exactly what it needs. *)
let fit p =
  if p.k > p.cap then begin
    let cap = if p.cap = 0 then p.k else max p.k (2 * p.cap) in
    let old = p.cap in
    let square a fill =
      let b = Float.Array.make (cap * cap) fill in
      for x = 0 to old - 1 do
        Float.Array.blit a (x * old) b (x * cap) old
      done;
      b
    in
    let rows a =
      let n = Array.length p.row_src in
      let b = Float.Array.make (n * cap) nan in
      for i = 0 to n - 1 do
        Float.Array.blit a (i * old) b (i * cap) old
      done;
      b
    in
    p.pair <- square p.pair nan;
    if p.watched then begin
      let listed = Bytes.make (cap * cap) '\000' in
      for x = 0 to old - 1 do
        Bytes.blit p.listed (x * old) listed (x * cap) old
      done;
      p.listed <- listed;
      p.thin <- rows p.thin
    end;
    p.move <- rows p.move;
    p.cap <- cap
  end

(* Forget every kept cost: the routes have changed. *)
let forget p =
  Float.Array.fill p.pair 0 (Float.Array.length p.pair) nan;
  Bytes.fill p.listed 0 (Bytes.length p.listed) '\000';
  p.crossing <- [||];
  Array.fill p.row_src 0 (Array.length p.row_src) (-1);
  p.epoch <- Cluster.route_epoch p.cluster

let routes_moved p =
  let moved = Cluster.route_epoch p.cluster <> p.epoch in
  if moved then forget p;
  moved

let drain p reader =
  if not p.watched then begin
    p.watched <- true;
    Float.Array.fill p.pair 0 (Float.Array.length p.pair) nan;
    p.listed <- Bytes.make (p.cap * p.cap) '\000';
    p.thin <- Float.Array.make (Array.length p.row_src * p.cap) nan
  end;
  let drained = ref (routes_moved p) in
  Fabric.drain reader (fun l ->
      drained := true;
      let id = Fabric.link_id l in
      if id < Array.length p.crossing then
        List.iter
          (fun key ->
            Float.Array.set p.pair (((key / p.span) * p.cap) + (key mod p.span)) nan)
          p.crossing.(id));
  !drained

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let load p (env : Cost_model.env) ~place movers =
  ignore (routes_moved p);
  let n = Array.length movers in
  let kept_movers =
    n = Array.length p.movers
    && Array.for_all2 (fun (m : mover) (o : mover) -> m.vm == o.vm) movers p.movers
  in
  if not kept_movers then begin
    let index = Hashtbl.create n in
    Array.iteri (fun i (m : mover) -> Hashtbl.replace index (Vm.name m.vm) i) movers;
    p.index <- index;
    p.host <- Array.make n 0;
    p.src <- Array.make n 0;
    p.row_src <- Array.make n (-1);
    p.row_mem <- Float.Array.make (3 * n) nan;
    if p.watched then p.thin <- Float.Array.make (n * p.cap) nan;
    p.move <- Float.Array.make (n * p.cap) nan
  end;
  if not (kept_movers && env.Cost_model.traffic == p.traffic) then begin
    let entries = Array.of_list env.Cost_model.traffic in
    let m = Array.length entries in
    let mover name = Option.value (Hashtbl.find_opt p.index name) ~default:(-1) in
    let ex = Array.map (fun (x, _, _) -> mover x) entries in
    let ey = Array.map (fun (_, y, _) -> mover y) entries in
    let rate = Float.Array.init m (fun e -> let _, _, r = entries.(e) in r) in
    let rev_incident = Array.make n [] in
    for e = m - 1 downto 0 do
      if ex.(e) >= 0 then rev_incident.(ex.(e)) <- e :: rev_incident.(ex.(e));
      if ey.(e) >= 0 && ey.(e) <> ex.(e) then rev_incident.(ey.(e)) <- e :: rev_incident.(ey.(e))
    done;
    p.traffic <- env.Cost_model.traffic;
    p.entries <- entries;
    p.ex <- ex;
    p.ey <- ey;
    p.sx <- Array.make m (-1);
    p.sy <- Array.make m (-1);
    p.rate <- rate;
    p.incident <- Array.map Array.of_list rev_incident;
    p.bounded <- Float.Array.for_all (fun r -> r >= 0.0) rate
  end;
  p.env <- env;
  p.movers <- movers;
  Array.iteri
    (fun i (m : mover) ->
      p.host.(i) <- slot p m.host;
      p.src.(i) <- slot p m.src)
    movers;
  let fixed mover name =
    if mover >= 0 then -1 else match place name with Some node -> slot p node | None -> -1
  in
  Array.iteri
    (fun e (x, y, _) ->
      p.sx.(e) <- fixed p.ex.(e) x;
      p.sy.(e) <- fixed p.ey.(e) y)
    p.entries;
  fit p;
  Array.iteri
    (fun i (m : mover) ->
      let memory = Vm.memory m.vm in
      let bytes = match m.bytes with Some b -> b | None -> Memory.nonzero_bytes memory in
      let zero = Memory.zero_bytes memory and dirty = Memory.dirty_bytes memory in
      let src = p.src.(i) in
      if p.row_src.(i) <> src then begin
        if p.watched then Float.Array.fill p.thin (i * p.cap) p.cap nan;
        Float.Array.fill p.move (i * p.cap) p.cap nan
      end
      else if
        not
          (same bytes (Float.Array.get p.row_mem (3 * i))
          && same zero (Float.Array.get p.row_mem ((3 * i) + 1))
          && same dirty (Float.Array.get p.row_mem ((3 * i) + 2)))
      then Float.Array.fill p.move (i * p.cap) p.cap nan;
      p.row_src.(i) <- src;
      Float.Array.set p.row_mem (3 * i) bytes;
      Float.Array.set p.row_mem ((3 * i) + 1) zero;
      Float.Array.set p.row_mem ((3 * i) + 2) dirty)
    movers

let make env ~place movers =
  let p = create env.Cost_model.cluster in
  load p env ~place movers;
  p

let self_contained p = Array.for_all (fun m -> m >= 0) p.ex && Array.for_all (fun m -> m >= 0) p.ey

let host p i = p.nodes.(p.host.(i))

let exchange p i j =
  let h = p.host.(i) in
  p.host.(i) <- p.host.(j);
  p.host.(j) <- h

let fill_pair p cell a b =
  p.pair_costs <- p.pair_costs + 1;
  let cost =
    if a = b then 0.0
    else
      match Cluster.route_opt p.cluster ~net:Cluster.Eth ~src:p.nodes.(a) ~dst:p.nodes.(b) with
      | None -> infinity
      | Some links ->
        if p.watched && Bytes.get p.listed cell = '\000' then begin
          Bytes.set p.listed cell '\001';
          let key = (a * p.span) + b in
          List.iter
            (fun l ->
              let id = Fabric.link_id l in
              if id >= Array.length p.crossing then begin
                let wider = Array.make (max (id + 1) (2 * Array.length p.crossing)) [] in
                Array.blit p.crossing 0 wider 0 (Array.length p.crossing);
                p.crossing <- wider
              end;
              p.crossing.(id) <- key :: p.crossing.(id))
            links
        end;
        Cost_model.route_cost p.env links
  in
  Float.Array.set p.pair cell cost

let[@inline] pair_cost p a b =
  let cell = (a * p.cap) + b in
  if Float.is_nan (Float.Array.get p.pair cell) then fill_pair p cell a b;
  Float.Array.get p.pair cell

let fill_move p cell i dst =
  let m = p.movers.(i) in
  Float.Array.set p.move cell
    (if dst = p.src.(i) then 0.0
     else begin
       let walk () = Estimator.thinnest_capacity p.cluster ~src:m.src ~dst:p.nodes.(dst) in
       let link_cap =
         if not p.watched then walk ()
         else begin
           if Float.is_nan (Float.Array.get p.thin cell) then Float.Array.set p.thin cell (walk ());
           Float.Array.get p.thin cell
         end
       in
       Cost_model.move_seconds_over ~vm:m.vm ?bytes:m.bytes ~link_cap ()
     end)

let[@inline] move_seconds p i dst =
  let cell = (i * p.cap) + dst in
  if Float.is_nan (Float.Array.get p.move cell) then fill_move p cell i dst;
  Float.Array.get p.move cell

(* The slot an endpoint sits on: a mover's current host, or its fixed slot. *)
let[@inline] at p mover fixed = if mover >= 0 then p.host.(mover) else fixed

(* Each entry incident to both movers counts once. *)
let[@inline] gain p i j =
  let hi = p.host.(i) and hj = p.host.(j) in
  let inc_i = p.incident.(i) and inc_j = p.incident.(j) in
  let ni = Array.length inc_i and nj = Array.length inc_j in
  let before = ref 0.0 and after = ref 0.0 in
  let a = ref 0 and b = ref 0 in
  while !a < ni || !b < nj do
    let e =
      if !b >= nj || (!a < ni && inc_i.(!a) < inc_j.(!b)) then begin
        let e = inc_i.(!a) in
        incr a;
        e
      end
      else begin
        let e = inc_j.(!b) in
        if !a < ni && inc_i.(!a) = e then incr a;
        incr b;
        e
      end
    in
    let mx = p.ex.(e) and my = p.ey.(e) in
    let x = at p mx p.sx.(e) and y = at p my p.sy.(e) in
    if x >= 0 && y >= 0 then
      before := !before +. (Float.Array.get p.rate e *. pair_cost p x y);
    let x = if mx = i then hj else if mx = j then hi else x in
    let y = if my = i then hj else if my = j then hi else y in
    if x >= 0 && y >= 0 then
      after := !after +. (Float.Array.get p.rate e *. pair_cost p x y)
  done;
  let saved = !before -. !after in
  let mig =
    move_seconds p i hj +. move_seconds p j hi -. move_seconds p i hi -. move_seconds p j hj
  in
  (Cost_model.default_horizon *. saved) -. mig

let priced p = p.priced

let pair_costs p = p.pair_costs

(* Mover [i]'s communication cost at the current slots: [rate x pair_cost]
   summed over its incident entries. *)
let incident_cost p i =
  let inc = p.incident.(i) in
  let sum = ref 0.0 in
  for k = 0 to Array.length inc - 1 do
    let e = inc.(k) in
    let x = at p p.ex.(e) p.sx.(e) and y = at p p.ey.(e) p.sy.(e) in
    if x >= 0 && y >= 0 then sum := !sum +. (Float.Array.get p.rate e *. pair_cost p x y)
  done;
  !sum

(* The scan skips a pair whose gain provably cannot beat the best so far.
   With every rate >= 0 and every pair cost >= 0, [after >= 0] and
   [before <= c_i + c_j] (an entry incident to both counts twice on the
   right), and a migration costs at least its lower bound [L], so

     gain(i, j) <= H (c_i + c_j) + s_i + s_j - L(i, h_j) - L(j, h_i)

   where [s_i] is the stay term m(i->h_i) and [L(i, h)] is 0 when [h] is
   i's source and [Cost_model.min_move_seconds] otherwise. A pair is
   skipped only when this bound, plus a rounding margin relative to the
   size of its terms, is at most the best gain; a NaN or infinite bound
   never skips. A skipped pair could not have replaced the best (the
   comparison is strict), so the scan returns what a full scan would.
   Each mover's terms are computed on its first eligible pair of the
   scan, when a full scan would price them too. *)
let best p ~movable =
  let n = Array.length p.movers in
  let ok = Array.init n movable in
  (* Each mover's bound terms, filled on its first eligible pair: [cost]
     its incident entries' cost, [stay] m(i->h_i) and [least] a lower
     bound on a move off its source. *)
  let known = Array.make n false in
  let cost = Float.Array.make n 0.0 in
  let stay = Float.Array.make n 0.0 in
  let least = Float.Array.make n 0.0 in
  let know i =
    if not known.(i) then begin
      known.(i) <- true;
      let m = p.movers.(i) in
      Float.Array.set cost i (incident_cost p i);
      Float.Array.set stay i (move_seconds p i p.host.(i));
      Float.Array.set least i (Cost_model.min_move_seconds ~vm:m.vm ?bytes:m.bytes ())
    end
  in
  let lower i h = if h = p.src.(i) then 0.0 else Float.Array.get least i in
  let hopeless i j best_gain =
    p.bounded
    && begin
      know i;
      know j;
      let up =
        (Cost_model.default_horizon *. (Float.Array.get cost i +. Float.Array.get cost j))
        +. Float.Array.get stay i +. Float.Array.get stay j
      in
      let li = lower i p.host.(j) and lj = lower j p.host.(i) in
      let bound = up -. li -. lj in
      Float.is_finite bound
      && bound +. (1e-9 *. (Float.abs up +. Float.abs li +. Float.abs lj)) +. 1e-6 <= best_gain
    end
  in
  let best = ref None in
  let best_gain = ref 1e-9 in
  for i = 0 to n - 2 do
    if ok.(i) then
      for j = i + 1 to n - 1 do
        let hi = p.host.(i) and hj = p.host.(j) in
        if ok.(j) && hi <> hj && Bool.equal p.ib.(hi) p.ib.(hj) && not (hopeless i j !best_gain)
        then begin
          p.priced <- p.priced + 1;
          let g = gain p i j in
          if g > !best_gain then begin
            best_gain := g;
            best := Some (i, j)
          end
        end
      done
  done;
  Option.map (fun (i, j) -> (i, j, !best_gain)) !best
