(* Tests for the metrics library: breakdowns, tables, stats. *)

open Ninja_engine
open Ninja_metrics

let check_float = Alcotest.(check (float 1e-9))

let breakdown =
  {
    Breakdown.coordination = Time.of_sec_f 0.5;
    detach = Time.of_sec_f 2.75;
    migration = Time.of_sec_f 28.5;
    attach = Time.of_sec_f 1.13;
    linkup = Time.of_sec_f 29.85;
    retry = Time.zero;
    total = Time.of_sec_f 70.0;
  }

let test_breakdown_hotplug () =
  check_float "hotplug = detach + attach" 3.88 (Time.to_sec_f (Breakdown.hotplug breakdown))

let test_breakdown_overhead_sum () =
  check_float "sum of segments" (0.5 +. 3.88 +. 28.5 +. 29.85)
    (Time.to_sec_f (Breakdown.overhead_sum breakdown))

let test_breakdown_add () =
  let doubled = Breakdown.add breakdown breakdown in
  check_float "add sums fields" 57.0 (Time.to_sec_f doubled.Breakdown.migration);
  check_float "zero is neutral" 28.5
    (Time.to_sec_f (Breakdown.add breakdown Breakdown.zero).Breakdown.migration)

let test_breakdown_row () =
  let row = Breakdown.to_row breakdown in
  Alcotest.(check (list string)) "labels"
    [ "coordination"; "hotplug"; "migration"; "linkup"; "total" ]
    (List.map fst row);
  check_float "hotplug cell" 3.88 (List.assoc "hotplug" row)

let test_breakdown_retry_row () =
  let b = { breakdown with Breakdown.retry = Time.of_sec_f 1.5 } in
  let row = Breakdown.to_row b in
  Alcotest.(check (list string)) "labels gain retry when nonzero"
    [ "coordination"; "hotplug"; "migration"; "linkup"; "retry"; "total" ]
    (List.map fst row);
  check_float "retry cell" 1.5 (List.assoc "retry" row);
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let with_retry = Format.asprintf "%a" Breakdown.pp b in
  let without = Format.asprintf "%a" Breakdown.pp breakdown in
  Alcotest.(check bool) "pp mentions retry when nonzero" true (contains with_retry "retry=");
  Alcotest.(check bool) "pp omits retry when zero" false (contains without "retry=")

let test_breakdown_zero () =
  check_float "zero total" 0.0 (Time.to_sec_f Breakdown.zero.Breakdown.total);
  check_float "zero hotplug" 0.0 (Time.to_sec_f (Breakdown.hotplug Breakdown.zero));
  check_float "zero overhead sum" 0.0 (Time.to_sec_f (Breakdown.overhead_sum Breakdown.zero));
  let row = Breakdown.to_row Breakdown.zero in
  Alcotest.(check bool) "zero row omits retry" false (List.mem_assoc "retry" row);
  let z = Breakdown.add Breakdown.zero Breakdown.zero in
  check_float "zero + zero = zero" 0.0 (Time.to_sec_f (Breakdown.overhead_sum z))

let test_table_render () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "x"; "y" ];
  Table.add_float_row t "row2" [ 1.234 ];
  let s = Format.asprintf "%a" Table.pp t in
  Alcotest.(check bool) "title present" true (String.length s > 0 && String.sub s 0 1 = "T");
  Alcotest.(check int) "two rows" 2 (List.length (Table.rows t));
  Alcotest.(check (list string)) "float row formatted" [ "row2"; "1.23" ]
    (List.nth (Table.rows t) 1)

let test_table_arity_check () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: cell count does not match columns")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_csv () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "x,1"; "plain" ];
  Alcotest.(check string) "escaped csv" "a,b\n\"x,1\",plain\n" (Table.to_csv t)

let test_table_empty () =
  (* A table with no rows still renders its header and produces a
     header-only CSV — experiment sweeps can legitimately come back
     empty. *)
  let t = Table.create ~title:"Empty" ~columns:[ "a"; "long-header" ] in
  Alcotest.(check (list (list string))) "no rows" [] (Table.rows t);
  let s = Format.asprintf "%a" Table.pp t in
  Alcotest.(check string) "render: title, header, rule"
    "Empty\na  long-header\n-  -----------\n" s;
  Alcotest.(check string) "csv: header only" "a,long-header\n" (Table.to_csv t)

let test_table_csv_quotes_and_newlines () =
  let t = Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "say \"hi\""; "two\nlines" ];
  Alcotest.(check string) "quotes doubled, newline cell quoted"
    "a,b\n\"say \"\"hi\"\"\",\"two\nlines\"\n" (Table.to_csv t)

let test_stats_single_sample () =
  check_float "mean of one" 4.2 (Stats.mean [ 4.2 ]);
  check_float "min of one" 4.2 (Stats.minimum [ 4.2 ]);
  check_float "max of one" 4.2 (Stats.maximum [ 4.2 ]);
  check_float "stddev of one" 0.0 (Stats.stddev [ 4.2 ]);
  Alcotest.check_raises "empty stddev" (Invalid_argument "Stats: empty sample") (fun () ->
      ignore (Stats.stddev []));
  Alcotest.check_raises "empty minimum" (Invalid_argument "Stats: empty sample") (fun () ->
      ignore (Stats.minimum []));
  Alcotest.check_raises "best_of 0" (Invalid_argument "Stats.best_of: n must be positive")
    (fun () -> ignore (Stats.best_of 0 (fun () -> 1.0)))

let test_stats () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  check_float "stddev of constant" 0.0 (Stats.stddev [ 5.0; 5.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats: empty sample") (fun () ->
      ignore (Stats.mean []))

let test_percentile () =
  let l = List.map float_of_int [ 15; 20; 35; 40; 50 ] in
  (* Nearest-rank: the smallest sample with at least p% of the sample at
     or below it — always an actual sample value. *)
  check_float "p0 is the minimum" 15.0 (Stats.percentile 0.0 l);
  check_float "p30 (textbook nearest-rank)" 20.0 (Stats.percentile 30.0 l);
  check_float "p40 lands on a sample" 20.0 (Stats.percentile 40.0 l);
  check_float "p50 of five" 35.0 (Stats.percentile 50.0 l);
  check_float "p100 is the maximum" 50.0 (Stats.percentile 100.0 l);
  check_float "singleton" 7.0 (Stats.percentile 99.0 [ 7.0 ]);
  check_float "unsorted input" 35.0 (Stats.percentile 50.0 [ 50.0; 15.0; 35.0; 40.0; 20.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats: empty sample") (fun () ->
      ignore (Stats.percentile 50.0 []));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p must be within [0, 100]") (fun () ->
      ignore (Stats.percentile 101.0 [ 1.0 ]))

let test_best_of () =
  let calls = ref 0 in
  let v =
    Stats.best_of 3 (fun () ->
        incr calls;
        float_of_int !calls)
  in
  check_float "keeps the minimum" 1.0 v;
  Alcotest.(check int) "ran n times" 3 !calls

let stats_props =
  [
    QCheck.Test.make ~name:"min <= mean <= max" ~count:300
      QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_exclusive 1000.0))
      (fun l ->
        let l = List.map Float.abs l in
        Stats.minimum l <= Stats.mean l +. 1e-9 && Stats.mean l <= Stats.maximum l +. 1e-9);
    QCheck.Test.make ~name:"stddev non-negative" ~count:300
      QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_exclusive 1000.0))
      (fun l -> Stats.stddev l >= 0.0);
    QCheck.Test.make ~name:"percentile is always a sample member" ~count:300
      QCheck.(
        pair
          (list_of_size Gen.(int_range 1 20) (float_bound_exclusive 1000.0))
          (float_bound_inclusive 100.0))
      (fun (l, p) -> List.mem (Stats.percentile p l) l);
  ]

let () =
  Alcotest.run "ninja_metrics"
    [
      ( "breakdown",
        [
          Alcotest.test_case "hotplug" `Quick test_breakdown_hotplug;
          Alcotest.test_case "overhead sum" `Quick test_breakdown_overhead_sum;
          Alcotest.test_case "add" `Quick test_breakdown_add;
          Alcotest.test_case "to_row" `Quick test_breakdown_row;
          Alcotest.test_case "retry row only when nonzero" `Quick test_breakdown_retry_row;
          Alcotest.test_case "zero element" `Quick test_breakdown_zero;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity check" `Quick test_table_arity_check;
          Alcotest.test_case "csv escaping" `Quick test_table_csv;
          Alcotest.test_case "empty table" `Quick test_table_empty;
          Alcotest.test_case "csv quotes and newlines" `Quick test_table_csv_quotes_and_newlines;
        ] );
      ( "stats",
        Alcotest.test_case "basics" `Quick test_stats
        :: Alcotest.test_case "single sample" `Quick test_stats_single_sample
        :: Alcotest.test_case "nearest-rank percentile" `Quick test_percentile
        :: Alcotest.test_case "best_of" `Quick test_best_of
        :: Qsuite.tests stats_props );
    ]
