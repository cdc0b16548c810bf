open Ninja_engine

type t = {
  name : string;
  cat : string;
  proc : string;
  thread : string;
  start : Time.t;
  mutable stop : Time.t option;
  mutable args : (string * string) list;
  mutable rev_children : t list;
}

let create ~name ~cat ~proc ~thread ~start ?(args = []) () =
  { name; cat; proc; thread; start; stop = None; args; rev_children = [] }

let finished s = s.stop <> None

let finish s ~at ?(args = []) () =
  if finished s then invalid_arg (Printf.sprintf "Span.finish: %s already finished" s.name);
  if Time.( < ) at s.start then
    invalid_arg (Printf.sprintf "Span.finish: %s would stop before it starts" s.name);
  s.stop <- Some at;
  if args <> [] then s.args <- s.args @ args

let duration s =
  match s.stop with
  | Some stop -> Time.diff stop s.start
  | None -> invalid_arg (Printf.sprintf "Span.duration: %s is still open" s.name)

let add_child parent child = parent.rev_children <- child :: parent.rev_children

let children s = List.rev s.rev_children

let find_child s name = List.find_opt (fun c -> String.equal c.name name) (children s)

let well_formed root =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let rec walk parent s =
    (match s.stop with
    | None -> problem "%s/%s: span %S is not finished" s.proc s.thread s.name
    | Some stop ->
      if Time.( < ) stop s.start then
        problem "%s/%s: span %S stops before it starts" s.proc s.thread s.name;
      (match parent with
      | None -> ()
      | Some p -> (
        if Time.( < ) s.start p.start then
          problem "%s: child %S starts before its parent %S" s.proc s.name p.name;
        match p.stop with
        | Some pstop when Time.( > ) stop pstop ->
          problem "%s: child %S stops after its parent %S" s.proc s.name p.name
        | _ -> ())));
    List.iter (walk (Some s)) (children s)
  in
  walk None root;
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* Scoped builder *)

type scope = {
  probes : Probe.t option;
  sim : Sim.t;
  proc : string;
  thread : string;
  mutable stack : t list;  (* innermost open span first *)
  mutable rev_roots : t list;
}

let scope ?probes ~sim ~proc ~thread () =
  { probes; sim; proc; thread; stack = []; rev_roots = [] }

(* Callers test [observed] before building a payload, so an idle bus
   costs the scope no allocation. *)
let observed sc = match sc.probes with Some probes -> Probe.active probes | None -> false

let mirror sc payload = match sc.probes with Some probes -> Probe.emit probes payload | None -> ()

let attach sc s =
  match sc.stack with
  | top :: _ -> add_child top s
  | [] -> sc.rev_roots <- s :: sc.rev_roots

let enter sc ~name ~cat ?(args = []) () =
  let s =
    create ~name ~cat ~proc:sc.proc ~thread:sc.thread ~start:(Sim.now sc.sim) ~args ()
  in
  attach sc s;
  sc.stack <- s :: sc.stack;
  if observed sc then
    mirror sc (Probe.Span_begin { name; cat; proc = sc.proc; thread = sc.thread; args });
  s

let close sc ?(args = []) s =
  finish s ~at:(Sim.now sc.sim) ~args ();
  if observed sc then
    mirror sc (Probe.Span_end { name = s.name; proc = sc.proc; thread = sc.thread; args })

let exit_ sc ?(args = []) s =
  if not (List.memq s sc.stack) then
    invalid_arg (Printf.sprintf "Span.exit_: %s is not an open span of this scope" s.name);
  let rec pop () =
    match sc.stack with
    | [] -> assert false
    | top :: rest ->
      sc.stack <- rest;
      if top == s then close sc ~args s
      else begin
        (* Unwinding past an abandoned span (an exception escaped it):
           close it where we stand so the tree stays well-formed. *)
        close sc ~args:[ ("abandoned", "true") ] top;
        pop ()
      end
  in
  pop ()

let note sc ~name ~cat ~start ?(args = []) () =
  let now = Sim.now sc.sim in
  let start = Time.min start now in
  let s = create ~name ~cat ~proc:sc.proc ~thread:sc.thread ~start ~args () in
  finish s ~at:now ();
  attach sc s;
  if observed sc then
    mirror sc
      (Probe.Span_note { name; cat; proc = sc.proc; thread = sc.thread; start; args });
  s

let roots sc = List.rev sc.rev_roots
