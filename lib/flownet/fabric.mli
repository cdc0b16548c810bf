(** Flow-level network fabric with max–min fair bandwidth sharing.

    A fabric is a set of directed capacity-constrained links; a {e flow} is
    a bulk transfer routed over a list of links. A link's capacity is
    fixed when it is added. Whenever the flow population changes, flow
    rates are recomputed by progressive filling: repeatedly saturate the
    most contended link, freeze its flows at the fair share, and continue
    with the residual capacities. Only the connected component (flows
    linked by shared links) that a join or leave touches is re-solved;
    components are independent, so every rate equals that of a solve of
    the whole fabric (see DESIGN), at a cost proportional to the component.
    Between changes rates are constant, so flow completions are exact
    events.

    The flows are a {!Ninja_engine.Rated} set, so the re-solve runs once
    per instant over every change made in it: at the set's flush, or
    first at a read barrier — {!rate}, {!link_utilization},
    {!remove_link}, {!drain} or {!last_bottlenecks}. Membership
    ({!active_flows}) is always current.

    This models both MPI traffic and migration traffic sharing the same
    interconnect, which is where the paper's congestion effects (e.g.
    migration time growth under load) come from. Propagation latency is
    deliberately not modelled here — callers account for per-message
    latency separately, since it is protocol-specific. *)

type t

type link

type flow

val create : Ninja_engine.Sim.t -> t

val last_bottlenecks : t -> int list
(** Link ids frozen by the most recent re-rate, in freeze order — the
    solve's deterministic tie-break trace, exposed for tests. It covers
    only the re-solved components: those every change since the previous
    re-rate touched. *)

val rerates : t -> int
(** How many times the fabric has re-solved (a cost counter). *)

val add_link : t -> name:string -> capacity:float -> link
(** [capacity] in bytes per second; must be positive. *)

val remove_link : t -> link -> unit
(** Retire a link, e.g. a private first hop whose transfer is over. Raises
    [Invalid_argument] if a flow still crosses it; removing twice is a
    no-op. The fabric forgets it at once: it leaves {!links}, and only the
    readers that hold it pending keep it, until their next {!drain}. Its
    id is never reused, and no flow may be started over it afterwards. *)

val links : t -> link list
(** The live (added, not removed) links, in creation order. *)

(** {1 The change feed}

    A link's utilisation changes only inside a re-rate, so a consumer
    that must look at every changed link need only look at the links the
    solver covered since it last looked. Each consumer holds its own
    {!reader}: the invariant checker's flow-conservation test and the
    flow monitor's tick hold one each, and each drains on its own
    rhythm. *)

type reader

val reader : t -> reader
(** A new reader of the links each re-rate covers: the re-solved
    components' links, a component whose last flow just left included.
    Every live link starts pending, so the reader's first {!drain} covers
    the whole fabric. A fabric serves up to 62 readers at once (raises
    [Invalid_argument] past that); a re-rate records each covered link
    once per reader, and with none it pays a list test. *)

val drain : reader -> (link -> unit) -> unit
(** Apply the function to each link pending in this reader, once each,
    and empty its set; other readers keep theirs. Every live link whose
    utilisation differs from the reader's last drain is among them. So is
    a link removed since then that was pending and is older than the
    reader (it now carries nothing); a pending link newer than the reader
    leaves its set when removed. The function must not change the
    fabric. *)

val release : reader -> unit
(** Stop recording and forget the pending links (idempotent); a released
    reader drains nothing and costs re-rates nothing. *)

val readers : t -> int
(** How many readers the fabric serves. *)

val link_name : link -> string

val link_id : link -> int
(** Unique within a fabric; stable for the link's lifetime. Useful as a
    hash/set key when reasoning about route overlap. *)

val link_capacity : link -> float
(** As given to {!add_link}; it never changes. *)

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
(** Sum of the current rates of flows crossing the link, in bytes/s. The
    sum is taken once per re-rate that covers the link and kept until the
    next one, so repeated reads cost a barrier and a load. *)
