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
