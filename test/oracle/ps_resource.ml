type info = { demand : float }

type t = {
  name : string;
  cap : float;
  set : info Rated.t;
}

type task = info Rated.task

(* Water-filling: serve tasks in increasing demand order; each takes
   [min(demand, residual / remaining_tasks)]. *)
let rerate cap set =
  let tasks = Rated.active set in
  let sorted =
    List.sort
      (fun a b -> Float.compare (Rated.payload a).demand (Rated.payload b).demand)
      tasks
  in
  let n = ref (List.length sorted) in
  let residual = ref cap in
  List.iter
    (fun task ->
      let fair = if !n > 0 then !residual /. float_of_int !n else 0.0 in
      let r = Float.min (Rated.payload task).demand fair in
      Rated.set_rate task r;
      residual := !residual -. r;
      decr n)
    sorted

let create sim ~name ~capacity =
  if not (capacity > 0.0) then invalid_arg "Ps_resource.create: capacity must be positive";
  let set = Rated.create sim ~name ~rerate:(rerate capacity) in
  { name; cap = capacity; set }

let name t = t.name

let capacity t = t.cap

let start t ~demand ~work =
  if not (demand > 0.0) then invalid_arg "Ps_resource.start: demand must be positive";
  Rated.add t.set ~payload:{ demand } ~work

let await task = Rated.await task

let consume t ~demand ~work = await (start t ~demand ~work)

let cancel t task = Rated.cancel t.set task

let active t = List.length (Rated.active t.set)

let load t =
  List.fold_left (fun acc task -> acc +. (Rated.payload task).demand) 0.0 (Rated.active t.set)

let utilization t =
  let granted = List.fold_left (fun acc task -> acc +. Rated.rate task) 0.0 (Rated.active t.set) in
  Float.min 1.0 (granted /. t.cap)
