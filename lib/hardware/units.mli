(** Byte and bandwidth unit helpers. *)

val gb : float -> float
(** [gb x] is x·2{^30} bytes — the paper reports memory sizes in binary
    gigabytes (a "20 GB" VM is 20 GiB of RAM). *)

val mb : float -> float

val gbps : float -> float
(** Network vendor convention: [gbps x] is x·10{^9}/8 bytes per second. *)

val pp_bytes : Format.formatter -> float -> unit
(** ["2.0 GiB"], ["512.0 MiB"], ... *)
