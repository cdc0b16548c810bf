type event = {
  at : Time.t;
  topic : string;
  action : string;
  subject : string;
  info : (string * string) list;
}

(* Each subscriber is boxed so [detach] can remove exactly the entry an
   [attach] created (closures have no useful equality). *)
type subscription = { fn : event -> unit }

type t = {
  sim : Sim.t;
  mutable subscribers : subscription list;
  mutable emitted : int;
}

let create sim = { sim; subscribers = []; emitted = 0 }

let attach t f =
  let s = { fn = f } in
  t.subscribers <- t.subscribers @ [ s ];
  s

let detach t s = t.subscribers <- List.filter (fun x -> x != s) t.subscribers

let subscribe t f = ignore (attach t f)

let with_subscriber t f body =
  let s = attach t f in
  Fun.protect ~finally:(fun () -> detach t s) body

let active t = t.subscribers <> []

let emitted t = t.emitted

let emit t ~topic ~action ?(subject = "") ?(info = []) () =
  match t.subscribers with
  | [] -> ()
  | subscribers ->
    t.emitted <- t.emitted + 1;
    let e = { at = Sim.now t.sim; topic; action; subject; info } in
    List.iter (fun s -> s.fn e) subscribers

let info_of e key = List.assoc_opt key e.info

let pp fmt e =
  Format.fprintf fmt "[%a] %s/%s" Time.pp e.at e.topic e.action;
  if e.subject <> "" then Format.fprintf fmt " %s" e.subject;
  List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) e.info
