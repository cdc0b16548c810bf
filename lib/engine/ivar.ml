(* An empty ivar's readers wait as their resume callbacks, newest first;
   a woken reader takes the value from the full state. *)
type 'a state = Empty | Waiting of (unit -> unit) * 'a state | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty }

(* Oldest first: the registration order. *)
let rec wake = function
  | Waiting (resume, older) ->
    wake older;
    resume ()
  | Empty | Full _ -> ()

let fill_if_empty t v =
  match t.state with
  | Full _ -> false
  | waiters ->
    t.state <- Full v;
    wake waiters;
    true

let fill t v = if not (fill_if_empty t v) then invalid_arg "Ivar.fill: already full"

let read t =
  match t.state with
  | Full v -> v
  | Empty | Waiting _ -> (
    Sim.suspend (fun resume ->
        match t.state with
        | Full _ ->
          (* Filled between the match and the registration: resume now. *)
          resume ()
        | waiters -> t.state <- Waiting (resume, waiters));
    match t.state with Full v -> v | Empty | Waiting _ -> assert false)

let peek t = match t.state with Full v -> Some v | Empty | Waiting _ -> None

let is_full t = match t.state with Full _ -> true | Empty | Waiting _ -> false
