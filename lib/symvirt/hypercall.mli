(** The SymVirt guest↔VMM channel.

    SymVirt provides exactly two mode-switch calls (§III-B): from the guest,
    [guest_wait] blocks the calling process until the VMM side issues
    [host_signal]. Between the two, the host may run monitor commands
    (detach/attach devices, migrate) against a quiescent guest.

    One endpoint exists per VM; several MPI processes in the same VM each
    call [guest_wait], and the host side observes the waiter count to know
    when the whole VM has reached the fence. *)

open Ninja_vmm

type t

val create : Vm.t -> t

val guest_wait : t -> unit
(** Guest-side hypercall (costs the calibrated mode-switch overhead). Blocks
    until the next {!host_signal}. *)

val waiting : t -> int
(** Number of guest processes currently blocked in [guest_wait]. *)

val await_waiters : t -> int -> unit
(** Host-side: block until at least that many guest processes are parked in
    [guest_wait]. *)

val host_signal : t -> unit
(** Wake every waiter. Typically preceded by [Vm.resume] — the VM must be
    running for guest code to observe the signal. *)
