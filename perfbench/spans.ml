(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent) in host seconds. Names are
   "<layer>.<call>", the layer being the lib/ directory the call enters.
   Spans are kept in memory and written out once, at exit. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

type t = { mutable stack : int list; mutable spans : span list; mutable next : int }

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create () = { stack = []; spans = []; next = 0 }

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let current t = match t.stack with p :: _ -> p | [] -> -1

(* A span for an interval measured elsewhere (e.g. inside a callback),
   parented under [parent] or else the currently open span. *)
let add ?parent t name ~start ~stop =
  let id = fresh_id t in
  let parent = Option.value parent ~default:(current t) in
  t.spans <- { id; parent; name; start; stop } :: t.spans

let record t name f =
  let id = fresh_id t in
  let parent = current t in
  t.stack <- id :: t.stack;
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; name; start; stop = now () } :: t.spans)
    f

(* [wrap tr name f] runs [f] under a span when tracing, as a plain call
   otherwise. *)
let wrap tr name f = match tr with None -> f () | Some t -> record t name f

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let dur s = s.stop -. s.start

(* Self time: a span's duration minus what its direct children cover. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map
    (fun s -> (s, dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    t.spans

(* Per span name: (count, total seconds, self seconds), sorted by name. *)
let summary t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, total, selfs =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (n + 1, total +. dur s, selfs +. self))
    (self_times t);
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] |> List.sort compare

(* Chrome trace-event JSON ("X" complete events, microseconds). *)
let to_chrome_json t =
  let spans = List.rev t.spans in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let event s =
    Printf.sprintf
      "{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
       \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}"
      s.name (layer s.name)
      ((s.start -. t0) *. 1e6)
      (dur s *. 1e6) s.id s.parent
  in
  "{\"traceEvents\": [\n" ^ String.concat ",\n" (List.map event spans) ^ "\n]}\n"
