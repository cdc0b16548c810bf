open Ninja_hardware
open Ninja_vmm

type mover = { vm : Vm.t; src : Node.t; host : Node.t; bytes : float option }

(* No simulated time passes while a table is in use, so residual
   capacities and migration estimates cannot change under it. Everything a
   pair's price reads is therefore resolved once per table: each traffic
   entry's endpoints (a mover, or the slot of a fixed node), each mover's
   incident entries in traffic order, and — on first use — each directed
   node pair's [Cost_model.pair_cost] and each (mover, destination)
   [Cost_model.move_seconds]. A pair then sums exactly the terms, in
   exactly the order, that filtering the whole matrix would give it. *)
type t = {
  env : Cost_model.env;
  movers : mover array;
  nodes : Node.t array;  (* the nodes a price can read, by slot *)
  ib : bool array;  (* slot -> its node has InfiniBand *)
  host : int array;  (* mover -> slot of its current or proposed host *)
  ex : int array;  (* entry -> mover at each endpoint, -1 for none *)
  ey : int array;
  sx : int array;  (* entry -> slot of each non-mover endpoint, -1 unresolved *)
  sy : int array;
  rate : Float.Array.t;
  incident : int array array;  (* mover -> its entries, ascending *)
  pair : Float.Array.t;  (* slot x slot -> pair cost; nan until first use *)
  move : Float.Array.t;  (* mover x destination slot -> seconds; nan until first use *)
}

let make (env : Cost_model.env) ~place movers =
  let n = Array.length movers in
  let index = Hashtbl.create n in
  Array.iteri (fun i (m : mover) -> Hashtbl.replace index (Vm.name m.vm) i) movers;
  let slot_of = Hashtbl.create (2 * n) in
  let rev_nodes = ref [] in
  let slot (node : Node.t) =
    match Hashtbl.find_opt slot_of node.Node.id with
    | Some k -> k
    | None ->
      let k = Hashtbl.length slot_of in
      Hashtbl.add slot_of node.Node.id k;
      rev_nodes := node :: !rev_nodes;
      k
  in
  let host = Array.map (fun (m : mover) -> slot m.host) movers in
  let entries = Array.of_list env.Cost_model.traffic in
  let m = Array.length entries in
  let mover name = Option.value (Hashtbl.find_opt index name) ~default:(-1) in
  let fixed name =
    if Hashtbl.mem index name then -1
    else match place name with Some node -> slot node | None -> -1
  in
  let ex = Array.map (fun (x, _, _) -> mover x) entries in
  let ey = Array.map (fun (_, y, _) -> mover y) entries in
  let sx = Array.map (fun (x, _, _) -> fixed x) entries in
  let sy = Array.map (fun (_, y, _) -> fixed y) entries in
  let rate = Float.Array.init m (fun e -> let _, _, r = entries.(e) in r) in
  let rev_incident = Array.make n [] in
  for e = m - 1 downto 0 do
    if ex.(e) >= 0 then rev_incident.(ex.(e)) <- e :: rev_incident.(ex.(e));
    if ey.(e) >= 0 && ey.(e) <> ex.(e) then rev_incident.(ey.(e)) <- e :: rev_incident.(ey.(e))
  done;
  let nodes = Array.of_list (List.rev !rev_nodes) in
  let k = Array.length nodes in
  {
    env;
    movers;
    nodes;
    ib = Array.map Node.has_ib nodes;
    host;
    ex;
    ey;
    sx;
    sy;
    rate;
    incident = Array.map Array.of_list rev_incident;
    pair = Float.Array.make (k * k) nan;
    move = Float.Array.make (n * k) nan;
  }

let host p i = p.nodes.(p.host.(i))

let exchange p i j =
  let h = p.host.(i) in
  p.host.(i) <- p.host.(j);
  p.host.(j) <- h

let fill_pair p cell a b =
  Float.Array.set p.pair cell (Cost_model.pair_cost p.env p.nodes.(a) p.nodes.(b))

let[@inline] pair_cost p a b =
  let cell = (a * Array.length p.nodes) + b in
  if Float.is_nan (Float.Array.get p.pair cell) then fill_pair p cell a b;
  Float.Array.get p.pair cell

let fill_move p cell i dst =
  let m = p.movers.(i) in
  Float.Array.set p.move cell
    (Cost_model.move_seconds p.env ~vm:m.vm ~src:m.src ~dst:p.nodes.(dst) ?bytes:m.bytes ())

let[@inline] move_seconds p i dst =
  let cell = (i * Array.length p.nodes) + dst in
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

let best p ~movable =
  let n = Array.length p.movers in
  let ok = Array.init n movable in
  let best = ref None in
  let best_gain = ref 1e-9 in
  for i = 0 to n - 2 do
    if ok.(i) then
      for j = i + 1 to n - 1 do
        let hi = p.host.(i) and hj = p.host.(j) in
        if ok.(j) && hi <> hj && Bool.equal p.ib.(hi) p.ib.(hj) then begin
          let g = gain p i j in
          if g > !best_gain then begin
            best_gain := g;
            best := Some (i, j)
          end
        end
      done
  done;
  Option.map (fun (i, j) -> (i, j, !best_gain)) !best
