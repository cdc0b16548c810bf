type mode = Quick | Full

type sink = string -> unit

type t = {
  seed : int64;
  mode : mode;
  faults : string list;
  topology : string option;
  traffic : string option;
  migration : string option;
  label : string;
  trace : sink option;
  metrics : sink option;
  spans : sink option;
  observe : (string -> float -> unit) option;
  pool : Pool.t option;
}

let make ?(seed = 42L) ?(mode = Quick) ?(faults = []) ?topology ?traffic ?migration
    ?(label = "") ?trace ?metrics ?spans ?observe ?pool () =
  { seed; mode; faults; topology; traffic; migration; label; trace; metrics; spans;
    observe; pool }

let default = make ()

let full = make ~mode:Full ()

let with_seed seed t = { t with seed }

let with_topology topology t = { t with topology }

let with_pool pool t = { t with pool }

let with_label label t = { t with label }

let with_observer observe t = { t with observe }

let jobs t = match t.pool with None -> 1 | Some p -> Pool.size p

let map t ~f xs =
  match t.pool with None -> List.map f xs | Some pool -> Pool.map pool ~f xs

let trace_line t line = Option.iter (fun sink -> sink line) t.trace

let emit_metrics t chunk = Option.iter (fun sink -> sink chunk) t.metrics

let emit_spans t chunk = Option.iter (fun sink -> sink chunk) t.spans

let observe t name value = Option.iter (fun f -> f name value) t.observe

let buffered t f =
  let mutex = Mutex.create () and rev_chunks = ref [] in
  let redirect sink =
    Option.map
      (fun sink chunk ->
        Mutex.protect mutex (fun () -> rev_chunks := (sink, chunk) :: !rev_chunks))
      sink
  in
  let r =
    f { t with trace = redirect t.trace; metrics = redirect t.metrics; spans = redirect t.spans }
  in
  (r, fun () -> List.iter (fun (sink, chunk) -> sink chunk) (List.rev !rev_chunks))
