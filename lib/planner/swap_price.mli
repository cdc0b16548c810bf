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

    A table keeps what it computes for as long as it holds, so one table
    can price many scans: the batch solver's lives for one solve, the
    online policy's for the whole service. It keeps three things, each
    bit-identical to computing it afresh until the event that forgets it:
    - a directed node-pair cost ({!Cost_model.pair_cost}) is forgotten
      when a {!load} drains a re-rate covering a link on the pair's route
      from the table's reader ({!watch}), since it reads the residuals of
      those links and nothing else that can change, or {!release} ends
      the watch;
    - a mover's thinnest route capacity to a host
      ({!Estimator.thinnest_capacity}) is forgotten when its source
      changes;
    - a mover's move estimate to a host ({!Cost_model.move_seconds}) is
      forgotten when its source, its byte count, or its VM's zero or dirty
      bytes change (precopy clears dirty bits even when it aborts).
    Routes and link capacities are fixed while {!Cluster.route_epoch}
    holds; when it moves, everything kept is forgotten. A table with no
    reader sees no re-rate, so it lives within one instant, as the batch
    solver's does.

    A table counts as a change every event that can move a price: a
    drained link, a moved epoch, another mover set, a mover's new host or
    source, its new byte, zero or dirty count, a fixed endpoint's new
    node, a matrix neither the same list nor bitwise equal to the last,
    an {!exchange} and a {!release}. *)

open Ninja_flownet
open Ninja_hardware
open Ninja_vmm

type mover = {
  vm : Vm.t;
  src : Node.t;  (** where a migration of [vm] starts *)
  host : Node.t;  (** the host [vm] is priced at: current or proposed *)
  bytes : float option;  (** bytes to migrate; [None] for the VM's non-zero footprint *)
}

type t

val create : Cluster.t -> t
(** An empty table over the cluster's nodes. *)

val load : t -> Cost_model.env -> place:(string -> Node.t option) -> mover array -> unit
(** Drain the table's reader, if it has one, then price these movers
    against the environment's traffic from now on, keeping what still
    holds (see above). A traffic endpoint naming a mover sits at that
    mover's host; any other endpoint sits where [place] puts it now,
    until the next load, and an entry with an endpoint [place] cannot
    resolve costs nothing. The environment's cluster must be the
    table's. *)

val make : Cost_model.env -> place:(string -> Node.t option) -> mover array -> t
(** {!create} and {!load}: a table for one instant. *)

val watch : t -> Fabric.reader -> unit
(** Hand the table a new reader of its cluster's fabric; every {!load}
    drains it first, so the table may outlive simulated time. A new
    reader starts with every link pending: no pair cost computed before
    it survives its first drain. *)

val release : t -> unit
(** Release the reader ({!Fabric.release}) and forget the kept pair costs. *)

val gain : t -> int -> int -> float
(** The net gain of exchanging the hosts of movers [i] and [j]. *)

val best : t -> movable:(int -> bool) -> (int * int * float) option
(** The pair [(i, j, gain)], [i < j], with the largest gain above [1e-9]
    among pairs of movable movers on distinct hosts of the same fabric
    class (an InfiniBand host never trades with an Ethernet-only one);
    ties keep the lowest [(i, j)]. [movable] is asked once per mover per
    scan. [None] when no exchange pays for its migrations.

    The scan visits the pairs in [(i, j)] order but prices only those
    that could beat the best gain so far. With every traffic rate [>= 0],
    a pair's gain is at most
    [horizon × (c_i + c_j) + m(i→hi) + m(j→hj) − L(i, hj) − L(j, hi)],
    where [c_i] is the cost of [i]'s incident entries at the current
    hosts, and [L(i, h)] is 0 when [h] is [i]'s source and
    {!Cost_model.min_move_seconds} otherwise. A pair whose bound, plus a
    rounding margin, is at most the best gain so far is skipped; a NaN
    or infinite bound never is. A skipped pair could not have replaced
    the best, so the result is bit-identical to pricing every pair with
    {!gain}. If any rate is negative or NaN the bound does not hold, and
    every eligible pair is priced.

    After a [None], a scan of the same movable vector with no change
    since (see above) returns [None] and prices nothing. *)

val priced : t -> int
(** Pairs that {!best} has priced on this table so far: at most the
    eligible pairs of its scans. *)

val pair_costs : t -> int
(** Node-pair costs the table has computed so far: a first use, or a use
    after a drain or {!release} forgot it. *)

val exchange : t -> int -> int -> unit
(** Exchange the hosts of movers [i] and [j]. *)

val host : t -> int -> Node.t
(** Mover [i]'s host after every {!exchange} so far. *)
