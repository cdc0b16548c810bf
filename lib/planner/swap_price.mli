(** Destination-swap pricing: the one kernel behind the batch [Swap]
    strategy ({!Solver}) and the control plane's online swap policy
    ([Service.propose_swap]), after Avin/Dunay/Schmid's destination-swap
    strategies (arXiv:1309.5826).

    A table holds a set of {e movers}, each at a current or proposed host,
    and prices exchanging the hosts of two of them against the
    environment's traffic matrix:

    {[
      gain = horizon × (before − after)
             − (m(i→hj) + m(j→hi) − m(i→hi) − m(j→hj))
    ]}

    where [before]/[after] sum [rate × Cost_model.pair_cost] over the
    traffic entries incident to [i] or [j] (each once, in matrix order,
    priced from the host of an entry's first VM to the host of its
    second) with the two hosts as they are / exchanged, [m(i→h)] is
    {!Cost_model.move_seconds} of [i] from its source to [h], and
    [horizon] is {!Cost_model.default_horizon}. A mover whose source is
    its host pays nothing to stay, so online the last two terms are
    exactly [0.0].

    No simulated time may pass while a table is in use: node-pair costs
    and migration estimates are computed on first use and then reused, so
    every gain is bit-identical to pricing the pair from scratch. *)

open Ninja_hardware
open Ninja_vmm

type mover = {
  vm : Vm.t;
  src : Node.t;  (** where a migration of [vm] starts *)
  host : Node.t;  (** the host [vm] is priced at: current or proposed *)
  bytes : float option;  (** bytes to migrate; [None] for the VM's non-zero footprint *)
}

type t

val make : Cost_model.env -> place:(string -> Node.t option) -> mover array -> t
(** A table over the movers and the environment's traffic. A traffic
    endpoint naming a mover sits at that mover's host; any other endpoint
    sits where [place] puts it, once and for all, and an entry with an
    endpoint [place] cannot resolve costs nothing. *)

val gain : t -> int -> int -> float
(** The net gain of exchanging the hosts of movers [i] and [j]. *)

val best : t -> movable:(int -> bool) -> (int * int * float) option
(** The pair [(i, j, gain)], [i < j], with the largest gain above [1e-9]
    among pairs of movable movers on distinct hosts of the same fabric
    class (an InfiniBand host never trades with an Ethernet-only one);
    ties keep the lowest [(i, j)]. [movable] is asked once per mover per
    scan. [None] when no exchange pays for its migrations. *)

val exchange : t -> int -> int -> unit
(** Exchange the hosts of movers [i] and [j]. *)

val host : t -> int -> Node.t
(** Mover [i]'s host after every {!exchange} so far. *)
