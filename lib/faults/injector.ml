open Ninja_engine

type point =
  | Precopy_stall
  | Precopy_abort
  | Qmp_timeout
  | Hotplug_attach_fail
  | Agent_crash
  | Node_death

let point_name = function
  | Precopy_stall -> "precopy-stall"
  | Precopy_abort -> "precopy-abort"
  | Qmp_timeout -> "qmp-timeout"
  | Hotplug_attach_fail -> "attach-fail"
  | Agent_crash -> "agent-crash"
  | Node_death -> "node-death"

let all_points =
  [ Precopy_stall; Precopy_abort; Qmp_timeout; Hotplug_attach_fail; Agent_crash; Node_death ]

let point_of_name name =
  List.find_opt (fun p -> String.equal (point_name p) name) all_points

type trigger = Always | At of Time.span | Nth of int | Prob of float

type spec = { point : point; site : string option; trigger : trigger; count : int }

type armed = { spec : spec; mutable remaining : int; mutable seen : int }

type t = {
  sim : Sim.t;
  prng : Prng.t;
  mutable probes : Probe.t option;
  mutable armed : armed list;
  fired_counts : (point, int ref) Hashtbl.t;
  hit_counts : (point, int ref) Hashtbl.t;
}

(* A fixed private seed: arming or firing faults must never perturb the
   simulation's main PRNG stream. *)
let default_seed = 0x6E696E6A61L

let create ?(seed = default_seed) sim =
  {
    sim;
    prng = Prng.create ~seed;
    probes = None;
    armed = [];
    fired_counts = Hashtbl.create 8;
    hit_counts = Hashtbl.create 8;
  }

let set_probes t probes = t.probes <- Some probes

let validate spec =
  (match spec.trigger with
  | Nth n when n < 1 -> invalid_arg "Injector.arm: Nth trigger is 1-based"
  | Prob p when p < 0.0 || p > 1.0 || not (Float.is_finite p) ->
    invalid_arg "Injector.arm: probability must be in [0, 1]"
  | Always | At _ | Nth _ | Prob _ -> ());
  if spec.count < 1 then invalid_arg "Injector.arm: count must be >= 1"

let arm_spec t spec =
  validate spec;
  t.armed <- t.armed @ [ { spec; remaining = spec.count; seen = 0 } ]

let arm t ?site ?(count = 1) trigger point = arm_spec t { point; site; trigger; count }

let clear t =
  t.armed <- [];
  Hashtbl.reset t.fired_counts;
  Hashtbl.reset t.hit_counts

let enabled t = t.armed <> []

let counter table point =
  match Hashtbl.find_opt table point with
  | Some c -> c
  | None ->
    let c = ref 0 in
    Hashtbl.add table point c;
    c

let fired t point = match Hashtbl.find_opt t.fired_counts point with Some c -> !c | None -> 0

let hits t point = match Hashtbl.find_opt t.hit_counts point with Some c -> !c | None -> 0

let matches a point ~site =
  a.spec.point = point
  && (match a.spec.site with None -> true | Some s -> String.equal s site)

let fire t point ~site =
  t.armed <> []
  &&
  let candidates = List.filter (fun a -> matches a point ~site) t.armed in
  if candidates = [] then false
  else begin
    incr (counter t.hit_counts point);
    List.iter (fun a -> a.seen <- a.seen + 1) candidates;
    let fires a =
      a.remaining > 0
      &&
      match a.spec.trigger with
      | Always -> true
      | At at -> Time.(Sim.now t.sim >= at)
      | Nth n -> a.seen = n
      | Prob p -> p > 0.0 && Prng.float t.prng 1.0 < p
    in
    match List.find_opt fires candidates with
    | None -> false
    | Some a ->
      if a.remaining <> max_int then a.remaining <- a.remaining - 1;
      incr (counter t.fired_counts point);
      Option.iter
        (fun probes ->
          Probe.emit probes
            (Probe.Fault { point = point_name point; site; firing = fired t point }))
        t.probes;
      true
  end

(* ------------------------------------------------------------------ *)
(* Textual specs: point[@site][:param{,param}] *)

let parse_spec text =
  let ( let* ) = Result.bind in
  let text = String.trim text in
  let head, params =
    match String.index_opt text ':' with
    | None -> (text, [])
    | Some i ->
      ( String.sub text 0 i,
        String.sub text (i + 1) (String.length text - i - 1)
        |> String.split_on_char ','
        |> List.map String.trim
        |> List.filter (fun s -> s <> "") )
  in
  let point_str, site =
    match String.index_opt head '@' with
    | None -> (head, None)
    | Some i ->
      ( String.sub head 0 i,
        Some (String.sub head (i + 1) (String.length head - i - 1)) )
  in
  let* point =
    match point_of_name (String.trim point_str) with
    | Some p -> Ok p
    | None ->
      Error
        (Printf.sprintf "unknown fault point %S; expected one of: %s" point_str
           (String.concat ", " (List.map point_name all_points)))
  in
  let* site =
    match site with
    | Some "" -> Error "empty fault site after '@'"
    | other -> Ok other
  in
  let parse_param (trigger, count) param =
    match String.index_opt param '=' with
    | None -> Error (Printf.sprintf "malformed fault parameter %S (expected key=value)" param)
    | Some i ->
      let key = String.sub param 0 i in
      let value = String.sub param (i + 1) (String.length param - i - 1) in
      let one_trigger mk =
        match trigger with
        | Some _ -> Error (Printf.sprintf "fault spec has more than one trigger (at %S)" param)
        | None -> Result.map (fun tr -> (Some tr, count)) mk
      in
      let float_of v =
        match float_of_string_opt v with
        | Some f when Float.is_finite f -> Ok f
        | _ -> Error (Printf.sprintf "bad number %S in fault spec" v)
      in
      (match key with
      | "t" -> one_trigger (Result.map (fun s -> At (Time.of_sec_f s)) (float_of value))
      | "n" -> (
        match int_of_string_opt value with
        | Some n when n >= 1 -> one_trigger (Ok (Nth n))
        | _ -> Error (Printf.sprintf "bad hit index %S in fault spec (need int >= 1)" value))
      | "p" -> (
        let* p = float_of value in
        if p < 0.0 || p > 1.0 then Error (Printf.sprintf "probability %s out of [0, 1]" value)
        else one_trigger (Ok (Prob p)))
      | "count" -> (
        match value with
        | "inf" -> Ok (trigger, Some max_int)
        | _ -> (
          match int_of_string_opt value with
          | Some c when c >= 1 -> Ok (trigger, Some c)
          | _ -> Error (Printf.sprintf "bad count %S in fault spec (need int >= 1 or inf)" value)))
      | _ -> Error (Printf.sprintf "unknown fault parameter %S" key))
  in
  let* trigger, count =
    List.fold_left
      (fun acc p -> Result.bind acc (fun st -> parse_param st p))
      (Ok (None, None)) params
  in
  Ok
    {
      point;
      site;
      trigger = Option.value trigger ~default:Always;
      count = Option.value count ~default:1;
    }

let spec_to_string s =
  let site = match s.site with None -> "" | Some site -> "@" ^ site in
  let params =
    (match s.trigger with
    | Always -> []
    | At t -> [ Printf.sprintf "t=%g" (Time.to_sec_f t) ]
    | Nth n -> [ Printf.sprintf "n=%d" n ]
    | Prob p -> [ Printf.sprintf "p=%g" p ])
    @ (if s.count = max_int then [ "count=inf" ]
       else if s.count = 1 then []
       else [ Printf.sprintf "count=%d" s.count ])
  in
  point_name s.point ^ site
  ^ match params with [] -> "" | ps -> ":" ^ String.concat "," ps

let pp_spec fmt s = Format.pp_print_string fmt (spec_to_string s)
