(** Fault-injection registry.

    Model code declares {e fault points} — named places where the real
    system can fail (a precopy transfer stalling or aborting, a QMP
    command timing out, a hotplug attach failing, a SymVirt agent
    crashing, a destination node dying). An injector holds a set of
    {e armed} faults, each a (point, optional site, trigger, firing
    budget) tuple; at runtime the fault point calls {!fire} and, when an
    armed fault's trigger matches, simulates the failure.

    Determinism: probabilistic triggers draw from the injector's own
    splitmix64 stream (never the simulation's), and an injector with
    nothing armed performs no draws and no allocation on the hit path —
    so runs with faults disabled are byte-identical to runs without the
    injector. *)

open Ninja_engine

type point =
  | Precopy_stall  (** a precopy round stalls for a fixed extra delay *)
  | Precopy_abort  (** the precopy transfer aborts; the VM stays at the source *)
  | Qmp_timeout  (** a monitor command times out without executing *)
  | Hotplug_attach_fail  (** a [device_add] fails after the ACPI delay *)
  | Agent_crash  (** a SymVirt agent dies before issuing its commands *)
  | Node_death  (** the targeted destination node dies permanently *)
(** Spelled ["precopy-stall"], ["precopy-abort"], ["qmp-timeout"],
    ["attach-fail"], ["agent-crash"] and ["node-death"] in a {!spec}'s
    text form. *)

type trigger =
  | Always  (** every matching hit fires (subject to the count budget) *)
  | At of Time.span  (** hits at or after this sim-time fire *)
  | Nth of int  (** exactly the nth matching hit fires (1-based) *)
  | Prob of float  (** each hit fires independently with this probability *)

type spec = {
  point : point;
  site : string option;  (** [None] matches any site *)
  trigger : trigger;
  count : int;  (** maximum firings; [max_int] means unlimited *)
}

type t

val create : ?seed:int64 -> Sim.t -> t
(** A fresh injector with nothing armed. [seed] (default a fixed
    constant) initialises the injector's private PRNG used only by
    [Prob] triggers. *)

val set_probes : t -> Probe.t -> unit
(** Firings are announced on the bus as topic ["fault"], action the point
    name, subject the site, with a ["firing"] ordinal in the info. *)

val arm : t -> ?site:string -> ?count:int -> trigger -> point -> unit
(** Arm a fault ([count] defaults to 1). Several faults may be armed on
    the same point. *)

val arm_spec : t -> spec -> unit

val clear : t -> unit

val enabled : t -> bool
(** True iff anything is armed (cheap; fault points use it as a guard). *)

val fire : t -> point -> site:string -> bool
(** Register a hit at a fault point. Returns true iff some armed fault
    matching [(point, site)] fires; its remaining count is decremented.
    A disabled injector always returns false at zero cost. *)

val fired : t -> point -> int
(** Total firings recorded for the point so far. *)

val hits : t -> point -> int
(** Total hits registered for the point so far (armed matches only). *)

(** {1 Textual fault specs}

    Grammar: [point\[@site\]\[:param{,param}\]] with at most one trigger
    param among [t=<seconds>] ({!At}), [n=<int>] ({!Nth}) and
    [p=<float>] ({!Prob}); no trigger param means {!Always}. [count=<int>]
    or [count=inf] bounds the firings (default 1).

    Examples: ["precopy-abort@vm0:t=12"], ["qmp-timeout:p=0.2,count=inf"],
    ["node-death@eth03:n=1"]. *)

val parse_spec : string -> (spec, string) result

val spec_to_string : spec -> string

val pp_spec : Format.formatter -> spec -> unit
