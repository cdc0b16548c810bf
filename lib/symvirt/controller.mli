(** The SymVirt controller and its per-VM agents (Fig. 3).

    The controller is the host-side master. [wait_all] blocks until every
    VM of the job has all of its guest processes parked in [symvirt_wait],
    then pauses the VMs — the globally consistent fence. Between
    [wait_all] and [signal], the controller spawns one agent per VM; each
    agent drives its VM's QEMU monitor (detach, migrate, attach). Agents
    run concurrently, exactly like the paper's Python agent threads, with
    each QMP command paying the controller round-trip overhead.

    Callers give the agents explicit QMP command lists ({!run_agents},
    {!run_agents_results}); {!device_attach} is the one shorthand, kept
    for the Fig. 5 script's [device_attach]. *)

open Ninja_hardware
open Ninja_vmm

type member = { vm : Vm.t; endpoint : Hypercall.t; procs : int }

type t

val create : Cluster.t -> members:member list -> t

val wait_all : t -> unit
(** Block until every member VM has [procs] waiters, then pause the VMs. *)

val signal : t -> unit
(** Resume every VM and wake its waiters. *)

val run_agents : t -> (Vm.t -> Qmp.command list) -> (Vm.t * Qmp.response list) list
(** Spawn one agent per VM executing that VM's command list; block until
    all agents finish. Responses are returned in member order. Raises
    {!Agent_failure} if any command returned an error. *)

val run_agents_results : t -> (Vm.t -> Qmp.command list) -> (Vm.t * Qmp.response list) list
(** Like {!run_agents} but never raises on a monitor error: failures stay
    in the response lists for the caller's retry/rollback machinery. A VM
    whose agent is killed by an armed [Agent_crash] fault reports a single
    [Error] response without having issued anything. *)

val first_error : Qmp.response list -> string option

exception Agent_failure of string

val device_attach : t -> mk_device:(Vm.t -> Device.t option) -> unit
(** Attach a device to each VM for which [mk_device] returns one. *)
