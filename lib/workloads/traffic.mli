(** Seeded per-tenant traffic matrices.

    A traffic matrix says how hard a tenant's VMs talk to each other in
    steady state — the demand a placement-aware planner (the [swap]
    strategy) optimises against. Patterns mirror the communication
    shapes of the MPI collectives the workload layer generates:

    - [Uniform] — every VM pair exchanges the same rate (alltoall /
      allreduce: dense, placement-insensitive except for locality).
    - [Ring] — VM [i] talks to VM [i+1] (ring allreduce, halo exchange /
      nearest-neighbour stencils: placement-sensitive and cheap to
      localise).
    - [Skewed] — a nearest-neighbour mouse background plus a few
      {e elephant} pairs carrying [factor] times the rate, drawn from
      the PRNG (the skewed flow distributions datacenter traces show;
      the case where adaptive destination swapping pays most, Avin et
      al. arXiv:1309.5826).

    Matrices are plain [(vm_a, vm_b, bytes_per_sec)] triples keyed by VM
    name — the representation {!Ninja_planner.Cost_model} prices — so no
    dependency edge is needed between the two libraries.

    The textual grammar (scenario files, [--traffic]) is
    [pattern:key=value,...] with no spaces, e.g. [uniform:rate=1e6],
    [ring:rate=5e5], [skewed:elephants=2,rate=1e5,factor=16]. Parameters
    may be omitted ([skewed] alone) to take the defaults. *)

open Ninja_engine

type pattern =
  | Uniform of { rate : float }  (** bytes/s per VM pair *)
  | Ring of { rate : float }  (** bytes/s per adjacent pair *)
  | Skewed of { elephants : int; rate : float; factor : float }
      (** [elephants] hot pairs at [rate *. factor] over a ring of mice
          at [rate] *)

val default_rate : float
(** 1 MB/s — small against migration link capacities, so communication
    cost steers placement without starving migrations. *)

val validate : pattern -> (unit, string) result

val to_string : pattern -> string
(** Round-trips through {!of_string}; canonical form (all parameters
    explicit, [%.17g] floats). *)

val of_string : string -> (pattern, string) result

val gen : Prng.t -> pattern
(** Draw a random pattern (for the scenario fuzzer). *)

val of_observations :
  ?sample_rate:int ->
  ?pkt_bytes:float ->
  window:float ->
  (string * string * int) list ->
  (string * string * float) list
(** Reconstruct a traffic matrix from sampled flow observations (see
    {!Ninja_telemetry.Flowmon}): each [(a, b, packets)] entry is the
    number of packets sampled for the pair at 1-in-[sample_rate] (default
    16) of [pkt_bytes]-byte packets (default 1500) over [window] observed
    seconds, estimating [packets * sample_rate * pkt_bytes / window]
    bytes per second. Entries are canonicalised (endpoints name-ordered,
    duplicates summed) and sorted — the same shape {!matrix} produces, so
    the result prices directly through {!Ninja_planner.Cost_model}.
    Pairs whose estimate is not positive are dropped. Raises
    [Invalid_argument] on a non-positive [window], [sample_rate] or
    [pkt_bytes]. *)

val matrix : Prng.t -> pattern -> vms:string list -> (string * string * float) list
(** The demand entries for the given VM population, sorted by endpoint
    names (deterministic for a given PRNG state). Fewer than two VMs
    yield the empty matrix. Raises [Invalid_argument] if the pattern
    does not {!validate}. *)
