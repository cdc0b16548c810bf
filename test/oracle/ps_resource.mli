(** Generalized processor sharing resource (CPU model).

    Models a pool of capacity (e.g. CPU cores) shared by concurrent tasks.
    Each task declares a demand cap (e.g. 1.0 = one core); when the sum of
    demands exceeds capacity, the surplus is distributed max–min fairly:
    every task gets [min(demand, fair share)], with slack from low-demand
    tasks redistributed (water-filling).

    This is what turns CPU over-commit into slowdown mechanistically: 16
    single-core tasks on an 8-core node each progress at rate 0.5, which is
    exactly the Fig. 8 "2 hosts (TCP)" consolidation penalty in the
    paper. *)

type t

val create : Sim.t -> name:string -> capacity:float -> t
(** [capacity] in core-equivalents; must be positive. *)

val name : t -> string

val capacity : t -> float

val consume : t -> demand:float -> work:float -> unit
(** Block the calling fiber until [work] core-seconds have been executed,
    drawing at most [demand] cores at any instant. *)

type task

val start : t -> demand:float -> work:float -> task
(** Non-blocking variant; pair with {!await} (e.g. to overlap CPU work with
    a network transfer). *)

val await : task -> unit

val cancel : t -> task -> unit

val active : t -> int
(** Number of in-flight tasks. *)

val load : t -> float
(** Sum of demands of in-flight tasks (may exceed capacity). *)

val utilization : t -> float
(** Fraction of capacity currently granted to tasks, in [0, 1]. *)
