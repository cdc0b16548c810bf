(** The max–min fair rates of a set of flows, solved from scratch.

    The reference that {!Ninja_flownet.Fabric}'s incremental solve is
    raced against: a pure function of the routes and the capacities, with
    no simulation, no rated set and no state kept between calls. *)

type solution = {
  rates : float array;  (** [rates.(i)] is flow [i]'s rate. *)
  freeze_order : int list;  (** Bottleneck link ids, in the order they froze. *)
}

val solve : capacity:(int -> float) -> int list array -> solution
(** [solve ~capacity routes] runs progressive filling over the flows
    [routes], each a non-empty list of distinct link ids, where link [id]
    carries [capacity id]. Each round picks the bottleneck, the least
    (fair share, link id) over the links some unfrozen flow crosses, where
    the fair share is the link's residual over its unfrozen flows, clamped
    at 0. Every unfrozen flow crossing it freezes at that share, which is
    subtracted from the residual (clamped at 0) of every link on the
    flow's route. Rounds repeat until every flow is frozen. *)
