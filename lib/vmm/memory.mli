(** Guest physical memory with page-granular dirty and non-zero tracking.

    This is the state that drives precopy migration cost: pages that have
    never been written ("zero pages") are compressed by the QEMU sender and
    cost only scan time; written pages cost wire transfer; pages written
    since the last synchronisation round are dirty and must be re-sent.

    Workloads allocate {!region}s and {!write} into them; the migration
    algorithm snapshots and {!clear_dirty}s between rounds. *)

type t

type region

val create : total_bytes:float -> t
(** Rounds up to whole pages. *)

val total_bytes : t -> float

val page_size : int
(** Tracking granularity in bytes (a multiple of the 4 KiB hardware page;
    see the implementation note). *)

(** {1 Guest-side operations} *)

val alloc : t -> bytes:float -> region
(** Reserve a contiguous region (pages still zero until written). Raises
    [Invalid_argument] if the VM is out of memory. *)

val write : t -> region -> offset:float -> bytes:float -> unit
(** Mark the page range as non-zero and dirty. Clipped to the region. *)

val write_all : t -> region -> unit

val free : t -> region -> unit
(** Return the pages to the allocator and zero them (madvise-style). *)

(** {1 VMM-side observations} *)

val nonzero_bytes : t -> float

val zero_bytes : t -> float

val dirty_bytes : t -> float

val clear_dirty : t -> unit

(** {1 Postcopy dual residency}

    During a postcopy migration the VMM tracks, per page, whether it is
    already resident at the destination or still at the source. The
    resident set starts empty at switchover ({!begin_postcopy}); pulls
    claim remote (nonzero, not-yet-resident) pages lowest-index-first;
    guest writes after switchover materialise at the destination, so
    {!write} marks them resident too. {!end_postcopy} drops the bitmap
    when the drain completes (or the VM is lost). *)

val begin_postcopy : t -> unit
(** Switchover commit: clear the resident set and start dual tracking. *)

val end_postcopy : t -> unit
(** Drain complete (every page moved) or VM lost: stop dual tracking. *)

val postcopy_active : t -> bool

val pull_pages : t -> max_pages:int -> int
(** Mark up to [max_pages] remote pages resident, lowest index first;
    returns how many were newly claimed (0 when fully drained). Never
    claims a page twice — the no-double-resident invariant. *)

val resident_bytes : t -> float

val remote_bytes : t -> float
(** Nonzero bytes still at the source ([nonzero - resident]). *)

(** {1 Page-level inspection (tests)} *)

val page_nonzero : t -> int -> bool

val page_dirty : t -> int -> bool

val page_resident : t -> int -> bool
