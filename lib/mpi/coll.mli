(** Collective communication algorithms (Open MPI "tuned" style).

    Payloads up to 512 KiB use latency-optimal binomial trees; larger ones
    use bandwidth-optimal compositions (binomial scatter + ring allgather
    for bcast — van de Geijn; ring reduce-scatter for reduce/allreduce —
    Rabenseifner), which is what gives the paper's collectives their
    near-line-rate cost on 8 GB payloads.

    All functions are SPMD: every rank of the job calls the same function
    with the same arguments. Reduction operators charge CPU time on the
    combining rank. Checkpoints are taken only at explicit
    {!Mpi.checkpoint_point}s, never inside a collective. *)

val sendrecv : Rank.proc -> dst:int -> src:int -> tag:int -> send_bytes:float -> float
(** Concurrent send+receive (ring building block); returns the received
    size. *)

val barrier : Rank.proc -> unit
(** Dissemination barrier (works for any process count). *)

val bcast : Rank.proc -> root:int -> bytes:float -> unit

val reduce : Rank.proc -> root:int -> bytes:float -> unit

val allreduce : Rank.proc -> bytes:float -> unit

val alltoall : Rank.proc -> bytes_per_pair:float -> unit
