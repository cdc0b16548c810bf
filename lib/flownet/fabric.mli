(** Flow-level network fabric with max–min fair bandwidth sharing.

    A fabric is a set of directed capacity-constrained links; a {e flow} is
    a bulk transfer routed over a list of links. Whenever the flow
    population changes (or a capacity changes), all flow rates are
    recomputed by progressive filling: repeatedly saturate the most
    contended link, freeze its flows at the fair share, and continue with
    the residual capacities. Between changes rates are constant, so flow
    completions are exact events.

    The flows are a {!Ninja_engine.Rated} set, so the re-solve runs once
    per instant over every change made in it: at the set's flush, or
    first at a read barrier — {!rate}, {!link_utilization},
    {!remove_link}, {!drain_resolved} or {!last_bottlenecks}. Membership
    ({!active_flows}) is always current.

    This models both MPI traffic and migration traffic sharing the same
    interconnect, which is where the paper's congestion effects (e.g.
    migration time growth under load) come from. Propagation latency is
    deliberately not modelled here — callers account for per-message
    latency separately, since it is protocol-specific. *)

type t

type link

type flow

type solver =
  | Incremental
      (** Re-run progressive filling only over the affected bottleneck set
          — the connected component (flows linked by shared links) touched
          by a join/leave/capacity change. Produces rates identical to
          [Global] (components are independent; see DESIGN), at cost
          proportional to the component instead of the fabric. *)
  | Global  (** Reference implementation: full re-solve on every change. *)

val create : ?solver:solver -> Ninja_engine.Sim.t -> t
(** Default solver is [Incremental]; pass [~solver:Global] to run the
    reference implementation (differential tests race the two). *)

val last_bottlenecks : t -> int list
(** Link ids frozen by the most recent re-rate, in freeze order — the
    solve's deterministic tie-break trace, exposed for tests. Under
    [Incremental] it covers only the re-solved components: those every
    change since the previous re-rate touched. *)

val rerates : t -> int
(** How many times the fabric has re-solved (a cost counter). *)

val add_link : t -> name:string -> capacity:float -> link
(** [capacity] in bytes per second; must be positive. *)

val remove_link : t -> link -> unit
(** Retire a link, e.g. a private first hop whose transfer is over. Raises
    [Invalid_argument] if a flow still crosses it; removing twice is a
    no-op. Its id is never reused, and no flow may be started over it
    afterwards. *)

val links : t -> link list
(** The live (added, not removed) links, in creation order — what the
    flow monitor polls on each tick. The list is cached between additions
    and removals. *)

(** {1 Re-solved links}

    A link's utilisation and capacity change only inside a re-rate, so a
    consumer that must look at every changed link (the invariant
    checker's flow-conservation test) need only look at the links the
    solver covered since it last looked. *)

val watch : t -> unit
(** Start recording the links each re-rate covers: under [Incremental]
    the re-solved component's links (a component whose last flow just
    left and a re-capacitated link no flow crosses included), under
    [Global] every live link. Every live link starts pending, so the
    first {!drain_resolved} covers the whole fabric. A fabric has at most
    one watcher: raises [Invalid_argument] when already watched. An
    unwatched fabric pays one flag test per re-rate. *)

val unwatch : t -> unit
(** Stop recording and forget the pending links (idempotent). *)

val drain_resolved : t -> (link -> unit) -> unit
(** Apply the function to each link recorded since the last drain (or
    {!watch}), once each, and empty the set. Every live link whose
    utilisation or capacity differs from the last drain is among them; a
    link removed since is not. *)

val link_name : link -> string

val link_id : link -> int
(** Unique within a fabric; stable for the link's lifetime. Useful as a
    hash/set key when reasoning about route overlap. *)

val link_capacity : link -> float

val set_link_capacity : t -> link -> float -> unit
(** Takes effect immediately; in-flight flows are re-rated. *)

val start : t -> route:link list -> bytes:float -> flow
(** Begin a transfer (non-blocking). The route must be non-empty and free
    of duplicate links. [bytes] must be non-negative. *)

val await : flow -> unit
(** Block the calling fiber until the flow completes (or is cancelled). *)

val transfer : t -> route:link list -> bytes:float -> unit
(** [start] followed by [await]. *)

val cancel : t -> flow -> unit

val rate : flow -> float
(** Current rate in bytes per second (0 before the first re-rate). *)

val is_done : flow -> bool

val active_flows : t -> int

val link_utilization : t -> link -> float
(** Sum of the current rates of flows crossing the link, in bytes/s. *)
