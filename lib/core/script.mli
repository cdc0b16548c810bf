(** Imperative controller API mirroring the paper's Fig. 5 Python script.

    The original drives QEMU monitors by name:

    {v
      ctl = symvirt.Controller(config.eth_hostlist)
      ctl.wait_all()
      ctl.device_detach(tag='vf0')
      ctl.migration(config.ib_hostlist, config.eth_hostlist)
      ctl.signal()
    v}

    This module is the OCaml equivalent, addressing nodes by name. One
    simplification relative to Fig. 5: the original brackets each VMM
    operation group in its own wait/signal pair (the guest briefly runs
    between them to process ACPI events); here a single fence spans the
    whole operation sequence, with ACPI settle time charged inside it —
    the measured overhead is the same as that of {!Ninja.migrate}, which
    keeps the per-group fences (asserted by tests; see EXPERIMENTS.md). *)

open Ninja_metrics

type ctl

val controller : Ninja.t -> ctl

val wait_all : ctl -> unit
(** Also requests the checkpoint (the cloud scheduler trigger) if no
    checkpoint is pending yet, then waits for the SymVirt fence. *)

val device_detach : ctl -> tag:string -> unit
(** Detach [tag] from every VM that has it. *)

val device_attach : ctl -> host:string -> tag:string -> unit
(** Attach an IB HCA at PCI address [host] (the paper reuses the QEMU
    argument name, e.g. ["04:00.0"]) to every VM whose current node has an
    IB port. *)

val migration : ctl -> src:string list -> dst:string list -> unit
(** Migrate the VM currently on each [src] node to the corresponding [dst]
    node (node names, as in the hostlist config of Fig. 5). *)

val signal : ctl -> unit
(** Resume the VMs and wait until every MPI process has reconstructed its
    transports (link-up included). *)

val quit : ctl -> Breakdown.t
(** End the script and return the overhead breakdown accumulated since the
    controller was created. *)
