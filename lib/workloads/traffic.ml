open Ninja_engine

type pattern =
  | Uniform of { rate : float }
  | Ring of { rate : float }
  | Skewed of { elephants : int; rate : float; factor : float }

let default_rate = 1e6

let default_elephants = 2

let default_factor = 16.0

let ok_rate r = r >= 0.0 && Float.is_finite r

let validate = function
  | Uniform { rate } | Ring { rate } ->
    if ok_rate rate then Ok () else Error "rate must be non-negative and finite"
  | Skewed { elephants; rate; factor } ->
    if not (ok_rate rate) then Error "rate must be non-negative and finite"
    else if elephants < 0 then Error "elephants must be non-negative"
    else if not (factor >= 1.0 && Float.is_finite factor) then
      Error "factor must be >= 1 and finite"
    else Ok ()

let to_string = function
  | Uniform { rate } -> Printf.sprintf "uniform:rate=%.17g" rate
  | Ring { rate } -> Printf.sprintf "ring:rate=%.17g" rate
  | Skewed { elephants; rate; factor } ->
    Printf.sprintf "skewed:elephants=%d,rate=%.17g,factor=%.17g" elephants rate factor

let of_string s =
  let s = String.trim s in
  let shape, params =
    match String.index_opt s ':' with
    | None -> (s, [])
    | Some i ->
      ( String.sub s 0 i,
        String.sub s (i + 1) (String.length s - i - 1)
        |> String.split_on_char ','
        |> List.filter (fun p -> p <> "") )
  in
  let parse_params () =
    List.fold_left
      (fun acc p ->
        match acc with
        | Error _ -> acc
        | Ok kvs -> (
          match String.index_opt p '=' with
          | None -> Error (Printf.sprintf "malformed parameter %S (expected key=value)" p)
          | Some i ->
            let k = String.sub p 0 i in
            let v = String.sub p (i + 1) (String.length p - i - 1) in
            (match float_of_string_opt v with
            | None -> Error (Printf.sprintf "parameter %s: bad number %S" k v)
            | Some f -> Ok ((k, f) :: kvs))))
      (Ok []) params
  in
  let get kvs k ~default = Option.value (List.assoc_opt k kvs) ~default in
  let known kvs allowed =
    match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
    | Some (k, _) ->
      Error
        (Printf.sprintf "unknown parameter %S (expected %s)" k (String.concat "," allowed))
    | None -> Ok ()
  in
  let build () =
    match parse_params () with
    | Error e -> Error e
    | Ok kvs -> (
      match String.lowercase_ascii shape with
      | "uniform" -> (
        match known kvs [ "rate" ] with
        | Error e -> Error e
        | Ok () -> Ok (Uniform { rate = get kvs "rate" ~default:default_rate }))
      | "ring" -> (
        match known kvs [ "rate" ] with
        | Error e -> Error e
        | Ok () -> Ok (Ring { rate = get kvs "rate" ~default:default_rate }))
      | "skewed" -> (
        match known kvs [ "elephants"; "rate"; "factor" ] with
        | Error e -> Error e
        | Ok () ->
          Ok
            (Skewed
               {
                 elephants =
                   int_of_float (get kvs "elephants" ~default:(float_of_int default_elephants));
                 rate = get kvs "rate" ~default:default_rate;
                 factor = get kvs "factor" ~default:default_factor;
               }))
      | other -> Error (Printf.sprintf "unknown traffic pattern %S (expected uniform|ring|skewed)" other))
  in
  match build () with
  | Error e -> Error ("traffic: " ^ e)
  | Ok p -> ( match validate p with Ok () -> Ok p | Error e -> Error ("traffic: " ^ e))

let gen prng =
  match Prng.int prng 3 with
  | 0 -> Uniform { rate = default_rate *. (0.25 +. Prng.float prng 2.0) }
  | 1 -> Ring { rate = default_rate *. (0.25 +. Prng.float prng 2.0) }
  | _ ->
    Skewed
      {
        elephants = 1 + Prng.int prng 3;
        rate = default_rate *. (0.25 +. Prng.float prng 1.0);
        factor = 4.0 +. Prng.float prng 28.0;
      }

(* Canonical undirected entry: endpoints in name order, so the output is
   stable under endpoint orientation and sortable. *)
let entry a b rate = if String.compare a b <= 0 then (a, b, rate) else (b, a, rate)

let ring_pairs vms rate =
  let arr = Array.of_list vms in
  let n = Array.length arr in
  if n < 2 then []
  else if n = 2 then [ entry arr.(0) arr.(1) rate ]
  else List.init n (fun i -> entry arr.(i) arr.((i + 1) mod n) rate)

(* Invert sFlow-style sampling: [n] sampled packets over [window]
   seconds at 1-in-[sample_rate] of [pkt_bytes]-byte packets estimate
   n * sample_rate * pkt_bytes / window bytes per second. Duplicate
   observations of a pair (either orientation) accumulate. *)
let of_observations ?(sample_rate = 16) ?(pkt_bytes = 1500.0) ~window obs =
  if window <= 0.0 || not (Float.is_finite window) then
    invalid_arg "Traffic.of_observations: window must be positive and finite";
  if sample_rate < 1 then invalid_arg "Traffic.of_observations: sample_rate must be >= 1";
  if pkt_bytes <= 0.0 then invalid_arg "Traffic.of_observations: pkt_bytes must be positive";
  let scale = float_of_int sample_rate *. pkt_bytes /. window in
  let by_pair (a, b, _) (a', b', _) =
    match String.compare a a' with 0 -> String.compare b b' | c -> c
  in
  (* Endpoints name-ordered, sorted by pair, each run of one pair summed:
     keys are then unique, so the pair order is the entries' order. *)
  let rec merge acc = function
    | (a, b, n) :: (a', b', n') :: rest when String.equal a a' && String.equal b b' ->
      merge acc ((a, b, n + n') :: rest)
    | (a, b, n) :: rest ->
      let rate = float_of_int n *. scale in
      merge (if rate > 0.0 then (a, b, rate) :: acc else acc) rest
    | [] -> List.rev acc
  in
  List.map (fun ((a, b, n) as o) -> if String.compare a b <= 0 then o else (b, a, n)) obs
  |> List.sort by_pair
  |> merge []

let matrix prng p ~vms =
  (match validate p with Ok () -> () | Error e -> invalid_arg ("Traffic.matrix: " ^ e));
  let arr = Array.of_list vms in
  let n = Array.length arr in
  let entries =
    if n < 2 then []
    else
      match p with
      | Uniform { rate } ->
        List.concat
          (List.init n (fun i ->
               List.init (n - 1 - i) (fun k -> entry arr.(i) arr.(i + 1 + k) rate)))
      | Ring { rate } -> ring_pairs vms rate
      | Skewed { elephants; rate; factor } ->
        let mice = ring_pairs vms rate in
        (* Draw elephant pairs without replacement; the attempt bound
           keeps a tiny population (few distinct pairs) from looping. *)
        let chosen = Hashtbl.create 8 in
        let picked = ref [] in
        let attempts = ref 0 in
        let limit = 16 * (elephants + 1) in
        while List.length !picked < elephants && !attempts < limit do
          incr attempts;
          let i = Prng.int prng n in
          let j = Prng.int prng n in
          if i <> j then begin
            let key = (min i j, max i j) in
            if not (Hashtbl.mem chosen key) then begin
              Hashtbl.add chosen key ();
              picked := entry arr.(i) arr.(j) (rate *. factor) :: !picked
            end
          end
        done;
        mice @ !picked
  in
  List.sort compare entries
