type 'a t = { items : 'a Queue.t; readers : ('a -> unit) Queue.t }

let create () = { items = Queue.create (); readers = Queue.create () }

let send t v =
  match Queue.take_opt t.readers with
  | Some wake -> wake v
  | None -> Queue.add v t.items

let recv t =
  match Queue.take_opt t.items with
  | Some v -> v
  | None ->
    let result = ref None in
    Sim.suspend (fun resume ->
        Queue.add
          (fun v ->
            result := Some v;
            resume ())
          t.readers);
    (match !result with Some v -> v | None -> assert false)

let try_recv t = Queue.take_opt t.items

let is_empty t = Queue.is_empty t.items
