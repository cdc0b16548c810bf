(** QEMU Monitor Protocol endpoint.

    Each VM exposes a monitor that accepts the three commands the paper's
    SymVirt agents issue (Fig. 5): [device_del], [migrate] and
    [device_add]. Commands have a small controller round-trip overhead and
    execute the corresponding VMM operation. *)

open Ninja_engine
open Ninja_hardware

type command =
  | Device_del of { tag : string; noise : float }
  | Device_add of { device : Device.t; noise : float }
  | Migrate of { dst : Node.t; transport : Migration.transport; mode : Migration.mode }

type response = Elapsed of Time.span | Migrated of Migration.stats | Error of string

val command_timeout : Time.span
(** How long an injected [Qmp_timeout] fault stalls before the command is
    declared lost (it is dropped without executing, so a re-issue is
    always safe). *)

val execute : Vm.t -> command -> response
(** Blocking; includes the per-command controller/QMP overhead. Monitor
    commands never raise — failures (including injected timeouts, aborted
    precopies, lost postcopies, hotplug attach failures and dead
    destinations) surface as [Error]. *)

val command_to_string : command -> string
(** The command's monitor text, e.g. ["device_add vf0 04:00.0 ib"] or
    ["migrate_postcopy eth03"]; a timed-out command's [Error] quotes it. *)
