open Ninja_engine

type process =
  | Poisson of { rate : float }
  | Bursts of { period : float; size : int; spread : float }
  | Overlay of process list

let rec validate = function
  | Poisson { rate } ->
    if rate >= 0.0 && Float.is_finite rate then Ok ()
    else Error "poisson rate must be non-negative and finite"
  | Bursts { period; size; spread } ->
    if not (period > 0.0 && Float.is_finite period) then
      Error "burst period must be positive and finite"
    else if size < 0 then Error "burst size must be non-negative"
    else if not (spread >= 0.0 && spread <= period) then
      Error "burst spread must lie within [0, period]"
    else Ok ()
  | Overlay [] -> Error "overlay of no processes"
  | Overlay ps ->
    List.fold_left
      (fun acc p -> match acc with Error _ -> acc | Ok () -> validate p)
      (Ok ()) ps

let rec draw prng p ~horizon =
  match p with
  | Poisson { rate } when rate = 0.0 -> []
  | Poisson { rate } ->
    let mean = 1.0 /. rate in
    let rec go acc t =
      let t = t +. Prng.exponential prng ~mean in
      if t >= horizon then acc else go (t :: acc) t
    in
    go [] 0.0
  | Bursts { period; size; spread } ->
    let rec go acc k =
      let base = float_of_int k *. period in
      if base >= horizon then acc
      else
        let acc =
          List.fold_left
            (fun acc _ ->
              let t = base +. (if spread > 0.0 then Prng.float prng spread else 0.0) in
              if t < horizon then t :: acc else acc)
            acc
            (List.init size Fun.id)
        in
        go acc (k + 1)
    in
    go [] 0
  | Overlay ps -> List.concat_map (fun p -> draw prng p ~horizon) ps

let times prng p ~horizon =
  (match validate p with Ok () -> () | Error e -> invalid_arg ("Arrivals.times: " ^ e));
  if not (horizon >= 0.0 && Float.is_finite horizon) then
    invalid_arg "Arrivals.times: horizon must be non-negative and finite";
  List.sort Float.compare (draw prng p ~horizon)
