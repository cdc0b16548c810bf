let check = function [] -> invalid_arg "Stats: empty sample" | l -> l

let mean l =
  let l = check l in
  List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let minimum l = List.fold_left Float.min Float.infinity (check l)

let maximum l = List.fold_left Float.max Float.neg_infinity (check l)

let stddev l =
  match check l with
  | [ _ ] -> 0.0 (* a singleton has no spread; avoid any sqrt round-off *)
  | l ->
    let m = mean l in
    let var = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l in
    sqrt (var /. float_of_int (List.length l))

(* Nearest-rank: the smallest value with at least p% of the sample at or
   below it; p = 0 is defined as the minimum. *)
let nearest_rank p n =
  if not (Float.is_finite p) || p < 0.0 || p > 100.0 then
    invalid_arg "Stats.percentile: p must be within [0, 100]";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  max 1 (min n rank) - 1

let percentile_sorted p sorted =
  let i = nearest_rank p (Array.length sorted) in
  if Array.length sorted = 0 then nan else sorted.(i)

let percentile p l =
  let a = Array.of_list (check l) in
  Array.stable_sort Float.compare a;
  percentile_sorted p a

let best_of n f =
  if n <= 0 then invalid_arg "Stats.best_of: n must be positive";
  minimum (List.init n (fun _ -> f ()))
