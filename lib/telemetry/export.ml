open Ninja_engine

(* ------------------------------------------------------------------ *)
(* JSON plumbing *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let quoted s = "\"" ^ escape s ^ "\""

let args_obj pairs =
  "{" ^ String.concat "," (List.map (fun (k, v) -> quoted k ^ ":" ^ quoted v) pairs) ^ "}"

(* Microseconds of sim time. 64-bit ns counts we produce stay well below
   2^53, so the float conversion is exact and %.3f is deterministic. *)
let usec at = Printf.sprintf "%.3f" (Int64.to_float (Time.to_ns at) /. 1e3)

(* FNV-1a, folded to a positive 31-bit int: track ids derive from track
   names alone, so independently rendered fragments agree on them. *)
let track_id s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x7fffffff) s;
  !h land 0x3fffffff

(* ------------------------------------------------------------------ *)
(* Fragment rendering *)

type tracks = {
  mutable rev_meta : string list;
  seen_procs : (string, unit) Hashtbl.t;
  seen_threads : (string * string, unit) Hashtbl.t;
}

let no_tracks () =
  { rev_meta = []; seen_procs = Hashtbl.create 8; seen_threads = Hashtbl.create 8 }

(* First sighting of a track emits its naming metadata. *)
let ids tracks ~proc ~thread =
  let pid = track_id proc in
  let tid = track_id (proc ^ "\x00" ^ thread) in
  if not (Hashtbl.mem tracks.seen_procs proc) then begin
    Hashtbl.add tracks.seen_procs proc ();
    tracks.rev_meta <-
      Printf.sprintf {|{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}|}
        pid (quoted proc)
      :: tracks.rev_meta
  end;
  if not (Hashtbl.mem tracks.seen_threads (proc, thread)) then begin
    Hashtbl.add tracks.seen_threads (proc, thread) ();
    tracks.rev_meta <-
      Printf.sprintf {|{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}|}
        pid tid (quoted thread)
      :: tracks.rev_meta
  end;
  (pid, tid)

let rec latest acc (s : Span.t) =
  let acc = Time.max acc s.Span.start in
  let acc = match s.Span.stop with Some t -> Time.max acc t | None -> acc in
  List.fold_left latest acc (Span.children s)

let fragment ?(track_prefix = "") ?(instants = []) ?upto roots =
  let upto =
    match upto with
    | Some t -> t
    | None ->
      List.fold_left
        (fun acc (e : Probe.event) -> Time.max acc e.Probe.at)
        (List.fold_left latest Time.zero roots)
        instants
  in
  let tracks = no_tracks () in
  let rev_events = ref [] in
  let push line = rev_events := line :: !rev_events in
  let rec span_event (s : Span.t) =
    let pid, tid = ids tracks ~proc:(track_prefix ^ s.Span.proc) ~thread:s.Span.thread in
    let stop, args =
      match s.Span.stop with
      | Some t -> (t, s.Span.args)
      | None -> (Time.max upto s.Span.start, s.Span.args @ [ ("unfinished", "true") ])
    in
    push
      (Printf.sprintf
         {|{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":%s}|}
         (quoted s.Span.name) (quoted s.Span.cat) (usec s.Span.start)
         (usec (Time.diff stop s.Span.start))
         pid tid (args_obj args));
    List.iter span_event (Span.children s)
  in
  List.iter span_event roots;
  List.iter
    (fun (e : Probe.event) ->
      let action, subject, info = Probe.render e.Probe.payload in
      let thread = if subject = "" then e.Probe.topic else subject in
      let pid, tid = ids tracks ~proc:(track_prefix ^ e.Probe.topic) ~thread in
      push
        (Printf.sprintf
           {|{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":%s}|}
           (quoted (e.Probe.topic ^ "/" ^ action))
           (quoted e.Probe.topic) (usec e.Probe.at) pid tid (args_obj info)))
    instants;
  match (tracks.rev_meta, !rev_events) with
  | [], [] -> ""
  | rev_meta, rev_events ->
    String.concat ",\n" (List.rev_append rev_meta (List.rev rev_events))

let document fragments =
  let fragments = List.filter (fun f -> f <> "") fragments in
  "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
  ^ String.concat ",\n" fragments
  ^ "\n]}\n"

let recorder_fragment ?track_prefix r =
  fragment ?track_prefix ~instants:(Recorder.instants r) ~upto:(Recorder.last_at r)
    (Recorder.roots r)

(* ------------------------------------------------------------------ *)
(* Breakdown derivation *)

let breakdown_of_root root =
  let child_dur name =
    match Span.find_child root name with Some s -> Span.duration s | None -> Time.zero
  in
  (* Failed attempts and backoff sleeps anywhere outside the rollback
     subtree; the rollback itself is charged once, as a whole, so its
     inner retries must not be double-billed. *)
  let rec retry_outside_rollback acc (s : Span.t) =
    if String.equal s.Span.cat "rollback" then acc
    else
      let acc = if String.equal s.Span.cat "retry" then Time.add acc (Span.duration s) else acc in
      List.fold_left retry_outside_rollback acc (Span.children s)
  in
  {
    Ninja_metrics.Breakdown.coordination = child_dur "coordination";
    detach = child_dur "detach";
    (* The migration-phase span is named by copy mode; exactly one of the
       two exists per migration, so the sum is just "the one that ran". *)
    migration = Time.add (child_dur "precopy") (child_dur "postcopy");
    attach = child_dur "attach";
    linkup = child_dur "link-up";
    retry = Time.add (child_dur "rollback") (retry_outside_rollback Time.zero root);
    total = Span.duration root;
  }
