(** Protocol invariant checker.

    Subscribes to a cluster's {!Ninja_engine.Probe} bus, pattern-matches
    on its typed payloads and asserts, synchronously on every announced
    transition, the protocol invariants the paper's correctness argument
    rests on:

    - {b clock-monotone} — probe timestamps never go backwards;
    - {b fence-before-migrate} — a managed VM only ever changes host
      while it is inside a SymVirt fence (all ranks paused);
    - {b bypass-migrate} — no VM migrates with a VMM-bypass device
      still attached;
    - {b attach-balance} — device adds and removes stay balanced per VM
      (no duplicate attach, no detach of an absent device);
    - {b plan-acyclic} — every constructed plan DAG is acyclic;
    - {b permit-leak} — the plan executor returns every per-host permit
      it acquired;
    - {b flow-conservation} — at every transition, the sum of flow
      rates on each fabric link stays within its capacity. Rates and
      capacities change only when {!Ninja_flownet.Fabric} re-solves, so
      each transition re-tests just the links re-solved since the last
      one ({!Ninja_flownet.Fabric.drain_resolved}) and reports every link
      still over capacity, in creation order;
    - {b fence-pairing} — fence enter/release strictly alternate, and
      no fence is left held at the end of the run;
    - {b rollback-restore} — after a rolled-back migration, every VM
      the rollback did not explicitly give up on is back on its origin
      host;
    - {b pull-monotone} — every postcopy pull strictly shrinks the
      VM's remaining remote byte count (the drain always progresses);
    - {b no-double-resident} — no pull ever re-claims a page that is
      already resident at the destination;
    - {b postcopy-lost} — a VM lost to a mid-drain source death ends
      the run frozen (running it would execute over missing pages), and
      every loss is announced by a [Migration_lost] event;
    - {b postcopy-complete} — a VM that is {e not} lost has finished
      every postcopy drain it started; silently running with pages
      still at the source is the violation the [Lost] accounting
      exists to prevent;
    - {b span-well-formed} — the timing spans mirrored onto the bus
      reassemble into sound trees: every begin has a matching end, every
      span closes with [stop >= start], and children nest inside their
      parents (checked at {!check_finish}, once the run is quiesced).

    Violations are collected, not raised: a single run reports every
    invariant it breaks. VMs the transactional rollback abandoned (a
    [Migrate_giveup] probe) are excused from placement and device
    restoration checks — giving up under a persistent fault is the
    documented best-effort behaviour, not a bug. Lost VMs are likewise
    exempt from restore-to-source and placement checks: rollback from a
    committed postcopy switchover is impossible by construction, and the
    mode-aware checks above replace the precopy-shaped ones for them. *)

open Ninja_hardware
open Ninja_vmm

type violation = {
  invariant : string;  (** short kebab-case name, e.g. ["fence-before-migrate"] *)
  at : Ninja_engine.Time.t;  (** sim time of the offending transition *)
  detail : string;
}

type t

val install : Cluster.t -> vms:Vm.t list -> t
(** Attach a checker to the cluster's probe bus, watching [vms] (their
    current devices become the attach-balance baseline). Install after
    the fleet is created and before any migration activity. A cluster
    takes one checker at a time: installing a second before the first is
    {!detach}ed raises [Invalid_argument] (the checker is its fabric's
    {!Ninja_flownet.Fabric.watch}er). *)

val detach : t -> unit
(** Remove the checker's bus subscription and fabric watch (idempotent).
    A detached bus with no other subscriber goes back to costing nothing
    per emit. *)

val with_checker : Cluster.t -> vms:Vm.t list -> (t -> 'a) -> 'a
(** [install], run the body, then {!detach} — even on exceptions. *)

val record : t -> invariant:string -> detail:string -> unit
(** Report a violation found outside the probe stream (used by
    {!Runner}'s end-of-run checks). *)

val excused : t -> string -> bool
(** Whether a VM (by name) was abandoned by a best-effort rollback
    phase since the last migration started. *)

val check_finish : t -> unit
(** End-of-run invariants: no fence held, every watched VM running on a
    live host, device state consistent with the host's hardware
    (IB host ⇒ HCA attached; Ethernet host ⇒ no bypass device), every
    postcopy drain finished, every lost VM frozen, and every span tree
    observed on the bus well formed. Call after [Sim.run] returns. *)

val events_seen : t -> int

val violations : t -> violation list
(** In detection order. *)

val pp_violation : Format.formatter -> violation -> unit
