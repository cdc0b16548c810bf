type t = { mutable permits : int; queue : (unit -> unit) Queue.t }

let create n =
  if n < 0 then invalid_arg "Semaphore.create: negative capacity";
  { permits = n; queue = Queue.create () }

let acquire t =
  if t.permits > 0 then t.permits <- t.permits - 1
  else Sim.suspend (fun resume -> Queue.add resume t.queue)

let release t =
  match Queue.take_opt t.queue with
  | Some wake -> wake ()
  | None -> t.permits <- t.permits + 1

let try_acquire t =
  if t.permits > 0 then begin
    t.permits <- t.permits - 1;
    true
  end
  else false

let available t = t.permits

let with_permit t f =
  acquire t;
  Fun.protect ~finally:(fun () -> release t) f
