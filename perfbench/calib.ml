(* Host-speed calibration for the end-to-end times.

   The benchmark runs on a shared host whose speed drifts by a quarter or
   more from one second to the next as neighbours load its caches and
   memory, and processor time slows with it. A fixed kernel that uses only
   the standard library, no simulator code, is timed about every [period]
   processor seconds: between ops ({!tick}), and inside an op by a
   processor-time timer ({!timed}). Processor time between two samples is
   scaled by [reference /. kernel time], averaged over the two, so the
   clock reads in seconds of a host on which the kernel takes [reference]
   seconds. A change to the simulator moves this clock as it moves
   processor time; a change in the host's speed moves the kernel too and
   cancels out. The kernel's own time is left out.

   The kernel makes scattered reads and writes over an 8 MiB table (the
   simulator's heap peaks at 17-40 MB on these workloads), with float
   arithmetic between them. It allocates nothing. Under heavy interference
   it still slows less than the simulator, so part of the drift remains. *)

let cpu () = Sys.time ()

(* Kernel seconds on the reference host (an Intel Xeon at 2.1 GHz). *)
let reference = 0.001

(* Processor seconds between samples. *)
let period = 0.05

let table = Array.make (1 lsl 20) 0

let sink = [| 0.0 |]

let kernel () =
  let mask = Array.length table - 1 in
  let x = ref 0x2545F491 and acc = ref 0.0 in
  for i = 1 to 50_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = (!x lsr 7) land mask in
    table.(j) <- table.(j) + i;
    acc := !acc +. sqrt (float_of_int (table.(j) land 0xffff))
  done;
  sink.(0) <- sink.(0) +. !acc

(* All fields are floats, so updating them allocates nothing. *)
type state = {
  mutable last : float;  (** processor time at the last sample *)
  mutable elapsed : float;  (** reference seconds up to the last sample *)
  mutable outside : float;  (** processor seconds outside the kernel up to the last sample *)
  mutable factor : float;  (** reference /. kernel time at the last sample *)
}

let state = { last = 0.0; elapsed = 0.0; outside = 0.0; factor = 1.0 }

(* Reference seconds since the process started, leaving out the kernel.
   Between samples it runs at the last sample's scale; a sample rescales
   the interval since the one before by the mean of their two scales. *)
let clock () = state.elapsed +. ((cpu () -. state.last) *. state.factor)

(* Processor seconds since the process started, leaving out the kernel. *)
let processor () = state.outside +. (cpu () -. state.last)

(* Set while a sample runs, so that the timer's signal arriving during a
   sample taken between ops does not start another inside it. *)
let busy = ref false

let sample () =
  busy := true;
  let c = cpu () in
  kernel ();
  let k = cpu () -. c in
  (* Not Float.max: the call would box its arguments. *)
  let factor = reference /. if k > 1e-6 then k else 1e-6 in
  state.elapsed <- state.elapsed +. ((c -. state.last) *. (state.factor +. factor) /. 2.0);
  state.outside <- state.outside +. (c -. state.last);
  state.factor <- factor;
  state.last <- cpu ();
  busy := false

(* Samples if [period] processor seconds have passed since the last one.
   Workloads call it before each op. *)
let tick () = if (not !busy) && cpu () -. state.last >= period then sample ()

let () = Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> tick ()))

let set_timer seconds =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = seconds; it_value = seconds })

(* [timed f] runs [f] with the timer sampling inside it. The signal's
   handling adds a few minor words at random to what [f] allocates, so the
   harness counts allocation in rounds run without it. *)
let timed f =
  set_timer period;
  Fun.protect ~finally:(fun () -> set_timer 0.0) f
