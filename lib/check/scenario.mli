(** Randomised migration scenarios.

    A scenario is a complete, self-contained description of one fuzz
    case: cluster shape, VM fleet, workload intensity, the scheduler
    trigger that sets migrations in motion, the armed fault specs, and
    (for harness self-tests) an optional planted protocol bug. A
    scenario fixes a run completely — {!Runner.run} on equal scenarios
    is byte-identical — which is what makes counterexamples replayable.

    The textual form is a line-oriented [key=value] file ([#] starts a
    comment; [fault=] may repeat). {!to_string} and {!of_string}
    round-trip exactly, including float parameters. *)

type trigger =
  | Drain  (** maintenance: evacuate node [ib00] *)
  | Disaster  (** evacuate the whole IB rack (rack 0) *)
  | Consolidate of int  (** pack [k] VMs per Ethernet host *)
  | Rebalance  (** spread one VM per Ethernet host *)

type plant =
  | Skip_rollback
  | Skip_fence  (** a planted protocol bug, for self-tests (see {!Runner}) *)

val plants : plant list
(** Every plant, in declaration order. *)

val plant_name : plant -> string
(** ["skip-rollback"] or ["skip-fence"], the replay-file and [--plant]
    spelling. *)

type t = {
  seed : int64;  (** seeds the simulation (and nothing else) *)
  ib : int;  (** IB-equipped node count (rack 0); ignored under [topo] *)
  eth : int;  (** Ethernet-only node count (rack 1); ignored under [topo] *)
  topo : Ninja_hardware.Topology.t option;
      (** when set, the cluster is a generated datacenter topology
          instead of the two-rack spec; VM [i] starts on the [i]-th host
          of the first IB rack, and [ib]/[eth]/[uplink_gbps] are unused
          (validation requires [uplink_gbps = None]) *)
  vms : int;  (** VM fleet size; VM [i] starts on node [ib<i>] *)
  procs : int;  (** MPI processes per VM *)
  mem_gb : float;  (** VM memory size *)
  compute : float;  (** per-iteration compute seconds *)
  msg_bytes : float;  (** per-iteration allreduce payload *)
  until : float;  (** workload iterates until this MPI wtime *)
  uplink_gbps : float option;  (** inter-rack WAN constraint, if any *)
  strategy : Ninja_planner.Solver.t;
      (** any planner strategy (see {!Ninja_planner.Solver.all}) *)
  mode : Ninja_vmm.Migration.mode;
      (** copy strategy for every migration the trigger sets in motion;
          [Postcopy] commits switchovers, so its failure semantics (the
          {!Ninja_core.Ninja.Lost} outcome, reroute refusal, mode-aware
          rollback) run under the checker *)
  traffic : string option;
      (** tenant traffic pattern in {!Ninja_workloads.Traffic} grammar,
          priced by cost-model strategies; a seeded matrix is drawn over
          the fleet at run time *)
  trigger : trigger;
  trigger_at : float;  (** sim seconds before the trigger fires *)
  faults : string list;  (** {!Ninja_faults.Injector} textual specs *)
  plant : plant option;  (** planted bug, for self-tests *)
}

val gen : Ninja_engine.Prng.t -> t
(** Draw a random well-formed scenario: destination capacity always
    suffices for the trigger, fault sites reference existing VMs/nodes,
    and node-death is only ever aimed at Ethernet (destination) nodes so
    migration sources never die. One in four scenarios carries a
    generated {!Ninja_hardware.Topology}. One in three scenarios
    migrates postcopy. No plant is ever generated. *)

val validate : t -> (unit, string) result
(** Structural sanity (positive counts, parsable fault specs, trigger
    feasibility). Generated scenarios always validate; hand-written
    replay files may not. *)

val trigger_to_string : trigger -> string

val to_string : t -> string
(** Render as a replay file (with a leading comment header). *)

val of_string : string -> (t, string) result
(** Parse a replay file. Unknown keys and malformed values (an unknown
    plant name among them) are errors; missing keys fall back to the
    documented defaults. *)

val shrink : t -> t list
(** Single-step simplification candidates, most aggressive first: drop a
    fault, remove a VM, drop to one process, halve the memory, shorten
    the workload, lift the WAN cap, serialise the plan, simplify the
    trigger. The plant (if any) is preserved. *)

val pp : Format.formatter -> t -> unit
(** One-line summary (not the replay form). *)
