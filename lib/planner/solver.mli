(** Plan scheduling strategies: a closed set of cost-model-driven
    solvers.

    A strategy takes a plan whose edges encode only {e correctness}
    (capacity conflicts, staging chains) and rewrites it — adding
    {e ordering} edges that shape how much of it may run concurrently,
    and possibly re-aiming steps at different destinations — guided by an
    explicit {!Cost_model}. Three strategies exist, and {!all},
    {!of_string} and {!help} (and therefore every CLI flag, scenario
    grammar and experiment grid built on them) enumerate exactly these:

    - [Sequential] ([sequential], alias [seq]) — a total chain, one
      migration at a time in dependency order. The pre-planner baseline
      behaviour of a scheduler that walks its VM list serially. Cost
      model: migration time.
    - [Grouped] ([grouped], alias [group]) — bandwidth-aware greedy
      bin-packing (after Wang et al., arXiv:1412.4980): steps are packed
      into maximal parallel waves such that no fabric link is
      oversubscribed — the sum of the member steps' standalone rates stays
      within every shared link's capacity — processing the most contended
      work first (largest footprint on the most loaded link). Steps in
      different waves that share a link are ordered by an edge;
      link-disjoint steps run freely in parallel. Cost model: migration
      time.
    - [Swap] ([swap], alias [destination-swap]) — adaptive destination
      exchanges (Avin/Dunay/Schmid, arXiv:1309.5826): starting from the
      plan's proposed assignment, repeatedly exchange the destinations of
      the two direct steps whose swap most reduces tenant communication
      cost net of the migration time the exchange costs, until no exchange
      pays for itself within the cost model's horizon. Each pass is one
      {!Swap_price.best} scan — the pricer the control plane's online swap
      policy also uses — with every direct step a mover at its proposed
      destination; staged VMs and bystanders sit where the unsolved plan
      leaves them. Pair costs are directional: demand from [a] to [b]
      prices the route from [a]'s host to [b]'s. Exchanges never cross
      fabric classes (an IB-planned VM keeps an IB-capable destination).
      The surviving assignment is rebuilt into a fresh conflict-correct
      plan and then grouped-wave packed. Cost model: composite. *)

open Ninja_hardware

type t = Sequential | Grouped | Swap
(** Plain comparable data (no closures), so scenarios can embed a
    strategy, compare it with structural equality and shrink over it. *)

val all : unit -> t list
(** [Sequential; Grouped; Swap] — the order scenario generators draw
    from. *)

val help : unit -> string
(** The canonical names joined with ["|"] — for CLI docs and error
    messages. *)

val name : t -> string

val of_string : string -> (t, string) result
(** Case- and space-insensitive lookup by name or alias; the error message
    enumerates the names. *)

val default : t
(** [Grouped]. *)

val grouped_waves : Cluster.t -> Plan.t -> Plan.step list list
(** The wave decomposition [Grouped] would use, for inspection: wave [i]
    steps only contend with steps in earlier waves. Call it on the unsolved
    plan — ordering edges added by {!solve} count as dependencies and
    would refine the result. *)

val solve : t -> Cluster.t -> ?traffic:Cost_model.traffic -> Plan.t -> Plan.t
(** Run the strategy. The input plan may be mutated; callers must use the
    {e returned} plan (a destination-rewriting strategy builds a fresh
    one). The result is acyclic whenever the input is. When the cluster's
    probe bus is live, emits [plan.cost.before]/[plan.cost.after] gauges
    (the strategy's own cost model) and a [plan]/[cost] event. *)
