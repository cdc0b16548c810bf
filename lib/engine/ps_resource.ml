type info = { demand : float }

type task = info Rated.task

(* The water-fill's state, shared with the set's rerate callback. *)
type fill = {
  cap : float;
  mutable order : task array; (* reused per rerate: active tasks sorted by demand *)
  mutable rates : Float.Array.t; (* reused per rerate: their rates *)
  mutable used : int; (* the slots of [order] the last rerate filled *)
}

type t = {
  name : string;
  fill : fill;
  set : info Rated.t;
}

(* Water-filling: serve tasks in increasing demand order, ties in
   insertion order; each takes [min(demand, residual / remaining_tasks)].
   A stable insertion sort into the reused [order] array ranks them:
   when every demand is equal (MPI ranks all ask for one core) that is a
   single pass. *)
let rerate fill set =
  let n = Rated.length set in
  if n > 0 then begin
    if Array.length fill.order < n then begin
      fill.order <- Array.make (max 8 (2 * n)) (Rated.filler set);
      fill.rates <- Float.Array.create (max 8 (2 * n))
    end;
    let order = fill.order in
    for i = 0 to n - 1 do
      let task = Rated.get set i in
      let demand = (Rated.payload task).demand in
      let j = ref i in
      while !j > 0 && (Rated.payload order.(!j - 1)).demand > demand do
        order.(!j) <- order.(!j - 1);
        decr j
      done;
      order.(!j) <- task
    done;
    let residual = ref fill.cap in
    for i = 0 to n - 1 do
      let task = order.(i) in
      let r = Float.min (Rated.payload task).demand (!residual /. float_of_int (n - i)) in
      Float.Array.set fill.rates i r;
      residual := !residual -. r
    done;
    Rated.set_rates order fill.rates n
  end;
  (* A task leaves at a change, whose rerate overwrites or clears its
     slot: the order keeps no finished task alive. *)
  for i = n to fill.used - 1 do
    fill.order.(i) <- Rated.filler set
  done;
  fill.used <- n

let no_task = { demand = 0.0 }

let create sim ~name ~capacity =
  if not (capacity > 0.0) then invalid_arg "Ps_resource.create: capacity must be positive";
  let fill = { cap = capacity; order = [||]; rates = Float.Array.create 0; used = 0 } in
  let set = Rated.create sim ~name ~filler:no_task ~log:false ~rerate:(rerate fill) in
  { name; fill; set }

let capacity t = t.fill.cap

let start t ~demand ~work =
  if not (demand > 0.0) then invalid_arg "Ps_resource.start: demand must be positive";
  Rated.add t.set ~payload:{ demand } ~work

let await task = Rated.await task

let consume t ~demand ~work = await (start t ~demand ~work)

let cancel t task = Rated.cancel t.set task

let active t = Rated.length t.set

let load t =
  let sum = ref 0.0 in
  for i = 0 to Rated.length t.set - 1 do
    sum := !sum +. (Rated.payload (Rated.get t.set i)).demand
  done;
  !sum

let rerates t = Rated.rerates t.set

let utilization t =
  let granted = ref 0.0 in
  for i = 0 to Rated.length t.set - 1 do
    granted := !granted +. Rated.rate (Rated.get t.set i)
  done;
  Float.min 1.0 (!granted /. t.fill.cap)
