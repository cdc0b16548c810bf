(** Node power model and energy metering.

    The paper's future work (§VII) proposes "intelligent VM placement in a
    data center consist[ing] of heterogeneous racks for power saving" —
    consolidation frees hosts that can then sleep. This module provides
    the accounting: a linear server power model (idle + dynamic·CPU
    utilisation, the standard first-order model for this class of blade)
    and a meter that integrates per-node energy over simulated time, with
    hosts at zero utilisation charged sleep power. *)

open Ninja_engine

type meter

val measure : Sim.t -> ?awake:(Node.t -> bool) -> until:Time.t -> Node.t list -> meter
(** Sample every second until the given time, integrating each node's
    power draw as a PowerEdge M610-class blade: 15 W asleep, 160 W idle
    and 110 W more at full load. [awake] decides whether a host is
    powered at all — the consolidation policy can only power off hosts
    with no resident VMs, so callers typically pass "hosts a VM"; the
    default treats any host with non-zero CPU utilisation as awake. *)

val energy_joules : meter -> float
(** Total energy across all metered nodes so far. *)

val per_node_joules : meter -> (Node.t * float) list

val samples : meter -> int
