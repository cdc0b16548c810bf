type t = int

type span = t

let zero = 0

let ns n = n

let us n = n * 1_000

let ms n = n * 1_000_000

let sec n = n * 1_000_000_000

let minutes n = n * 60_000_000_000

(* ~95 years; leaves headroom so clamped spans can still be added to any
   realistic simulation clock (see [add] for the unrealistic ones). *)
let clamp = 3_000_000_000_000_000_000

let of_sec_f s =
  if not (Float.is_finite s) then invalid_arg "Time.of_sec_f: not finite";
  let ns = Float.round (s *. 1e9) in
  if ns >= 3.0e18 then clamp
  else if ns <= -3.0e18 then -clamp
  else int_of_float ns

let to_sec_f t = float_of_int t /. 1e9

let to_ns t = Int64.of_int t

let to_int t = t

(* Two clamped spans sum past [max_int] (2^62 - 1 ns): saturate instead of
   wrapping, so a far-future deadline stays in the future. *)
let add a b =
  let s = a + b in
  if a >= 0 && b >= 0 && s < 0 then max_int
  else if a < 0 && b < 0 && s >= 0 then min_int
  else s

let diff a b = a - b

let mul s n = s * n

let scale s f = of_sec_f (to_sec_f s *. f)

let equal = Int.equal

let ( < ) (a : int) b = a < b

let ( <= ) (a : int) b = a <= b

let ( > ) (a : int) b = a > b

let ( >= ) (a : int) b = a >= b

let min (a : int) b = if a <= b then a else b

let max (a : int) b = if a >= b then a else b

let is_negative s = s < 0

let pp fmt t =
  let f = to_sec_f t in
  let abs = Float.abs f in
  if Stdlib.( >= ) abs 1.0 then Format.fprintf fmt "%.2fs" f
  else if Stdlib.( >= ) abs 1e-3 then Format.fprintf fmt "%.2fms" (f *. 1e3)
  else if Stdlib.( >= ) abs 1e-6 then Format.fprintf fmt "%.2fus" (f *. 1e6)
  else Format.fprintf fmt "%dns" t
