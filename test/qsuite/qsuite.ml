let seed =
  match Sys.getenv_opt "NINJA_TEST_SEED" with Some s -> Int64.of_string s | None -> 1L

let tests props =
  List.map
    (fun prop ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| Int64.to_int seed |]) prop)
    props
