(** Replayable properties. Every property draws its cases from
    [NINJA_TEST_SEED], each from a fresh state, so each seed of the CI
    matrix tests its own reproducible cases and two runs at one seed test
    the same ones. *)

val seed : int64
(** [NINJA_TEST_SEED], 1 when unset. *)

val tests : QCheck2.Test.t list -> unit Alcotest.test_case list
(** Each property as an alcotest case drawing from a fresh random state
    seeded with {!seed}. *)
