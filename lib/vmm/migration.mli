(** QEMU-style precopy live migration.

    Round 0 walks all guest memory: non-zero pages stream at the sender's
    CPU-bound effective rate through the Ethernet fabric; zero pages are
    detected and compressed at scan rate (§IV-B2: "compresses pages that
    contain uniform data"). Subsequent rounds re-send pages the (still
    running) guest dirtied; when the residual dirty set transfers within
    the downtime target — or the round budget is exhausted — the VM is
    paused for the final stop-and-copy.

    Under Ninja migration the guest is already frozen at the SymVirt fence,
    so precopy converges right after the first pass; the live path matters
    for the no-quiesce ablation and for plain (non-MPI) VMs.

    A migration with a VMM-bypass device attached is refused — the
    invariant the paper's whole coordination dance exists to satisfy.

    Fault injection: the cluster's {!Ninja_faults.Injector} is consulted
    at each precopy round boundary ([Precopy_stall] burns
    {!precopy_stall_duration}; [Precopy_abort] raises {!Aborted} after
    tearing the attempt down — the VM keeps its source host and run
    state) and at migration start ([Node_death] of the destination, which
    raises [Cluster.Node_dead]). *)

open Ninja_engine
open Ninja_hardware

exception Bypass_device_attached of string

exception Aborted of string
(** An injected mid-flight failure {e before} any switchover commit. The
    VM is left exactly as before the attempt: on its source host, with
    its pre-migration run state. Also raised when migrating a VM that an
    earlier postcopy failure already lost. *)

exception Postcopy_lost of string
(** The source died after a postcopy switchover committed but before the
    page drain completed: part of the VM's memory is unrecoverable and no
    host holds a complete image. The VM is paused at the destination,
    marked {!Vm.is_lost}, and must never run again — there is no rollback
    from a committed switchover. *)

type transport = Tcp | Rdma

type mode =
  | Precopy
  | Postcopy
      (** Stop-and-switch after pushing a small hot set, then demand-page
          the rest: prioritized chunked pulls over the data fabric (one
          rated flow and one ["migration"/"pull"] probe each) while the
          guest runs at the destination under a remote-demand-fault
          slowdown. Total time is footprint-bound like precopy, but
          downtime is constant and live re-dirtying costs nothing (each
          page moves exactly once, tracked by {!Memory}'s dual residency
          bitmaps) — the trade-off studied by the authors' later postcopy
          work (Yabusame). Failure semantics differ fundamentally from
          precopy: an abort before switchover is a clean return-to-source,
          but once the switchover commits the source's death raises
          {!Postcopy_lost}. *)

val mode_name : mode -> string

val mode_of_string : string -> (mode, string) result

type stats = {
  duration : Time.span;
  rounds : int;
  transferred_bytes : float;  (** actual wire bytes (zero pages excluded) *)
  scanned_zero_bytes : float;
  downtime : Time.span;  (** stop-and-copy pause *)
  pulls : Time.span list;
      (** per-chunk postcopy pull latencies in pull order; [[]] for
          precopy — feeds the pull-latency histogram and tail columns *)
}

val migrate : Vm.t -> dst:Node.t -> ?transport:transport -> ?mode:mode -> unit -> stats
(** Blocks the calling fiber until the VM runs on [dst] (for [Postcopy]:
    until the background pull completes and the slowdown is lifted).
    Self-migration ([dst] = current host) exercises the same protocol over
    the loopback path, as in the paper's Table II experiment. *)

val sender_rate : transport -> float

val precopy_stall_duration : Ninja_engine.Time.span

val postcopy_fault_slowdown : float
