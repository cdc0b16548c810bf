(* The probe bus's event vocabulary, written once: [Probe] re-exports it
   and gives each constructor its topic and text form. Fences and
   migration transactions have two emitters (the SymVirt controller or
   [Ninja.migrate], and the control plane's per-batch fence); a field one
   side does not know is [""] or [[]]. *)

type stat_kind = Counter | Gauge | Histogram

type payload =
  | Fence_enter of { id : string; vms : string list }
      (** [id] names a control-plane batch's fence, [""] the controller's *)
  | Fence_release of { id : string; vms : string list }
  | Device_add of { vm : string; tag : string; bypass : bool }
  | Device_del of { vm : string; tag : string }
  | Vm_migrated of { vm : string; src : string; dst : string; bypass : bool }
      (** [bypass]: a VMM-bypass device was still attached *)
  | Qmp of { vm : string; command : string; args : (string * string) list }
  | Plan_built of { steps : int; deps : int; acyclic : bool; staged : int; overcommits : int }
  | Plan_swap of { swaps : int; passes : int; movers : int }
  | Plan_cost of { strategy : string; model : string; before : float; after : float }
  | Executor_report of
      { steps : int; failures : int; retries : int; rerouted : int; permits_leaked : int }
  | Migrate_start of { batch : string; origins : (string * string) list }
      (** [origins]: each VM with its host *)
  | Migrate_complete of { batch : string }
  | Migrate_rollback of
      { batch : string; origins : (string * string) list; reason : string; lost : string list }
      (** the control plane fills [batch] and [origins], [Ninja.migrate]
          the [reason] and the VMs [lost] mid-postcopy *)
  | Migrate_giveup of { vm : string; phase : string }
  | Migration_pull of
      { vm : string; bytes : float; fresh_pages : int; dup_pages : int; remaining : float }
  | Migration_lost of { vm : string; src : string; dst : string; missing : float }
  | Migration_done of
      { vm : string; src : string; dst : string; mode : string; bytes : float; rounds : int;
        downtime : Time.span }
  | Stat of { name : string; kind : stat_kind; value : float }
      (** a control-plane registry update *)
  | Request_done of
      { tenant : string; outcome : string; kind : string; missed : bool; completed : bool;
        latency : float }
  | Fault of { point : string; site : string; firing : int }
  | Node_death of { node : string }
  | Trigger of { trigger : string }
  | Span_begin of
      { name : string; cat : string; proc : string; thread : string;
        args : (string * string) list }
  | Span_end of { name : string; proc : string; thread : string; args : (string * string) list }
  | Span_note of
      { name : string; cat : string; proc : string; thread : string; start : Time.t;
        args : (string * string) list }
      (** an already-closed span [start .. now]: bus timestamps stay
          monotone, so an interval known only afterwards is announced at
          its end *)
