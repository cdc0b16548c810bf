let max_attempts = 3

let backoff ~attempt =
  if attempt < 1 then invalid_arg "Retry.backoff: attempt is 1-based";
  Time.min (Time.scale (Time.ms 100) (2.0 ** float_of_int (attempt - 1))) (Time.sec 5)

type outcome = { attempts : int; delay_total : Time.span }

let run f =
  let rec go attempt delay_total =
    match f ~attempt with
    | v -> (v, { attempts = attempt; delay_total })
    | exception e ->
      if attempt >= max_attempts then raise e;
      let delay = backoff ~attempt in
      Sim.sleep delay;
      go (attempt + 1) (Time.add delay_total delay)
  in
  go 1 Time.zero
