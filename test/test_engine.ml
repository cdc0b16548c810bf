(* Tests for the DES kernel: time, prng, heap, fibers, primitives, rated
   resources. Everything here underpins the whole reproduction, so these
   tests pin exact virtual-time semantics, not just "it runs". *)

open Ninja_engine

let sec_f = Time.to_sec_f

let check_time = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check_time "us" 1e-6 (sec_f (Time.us 1));
  check_time "ms" 1e-3 (sec_f (Time.ms 1));
  check_time "sec" 42.0 (sec_f (Time.sec 42));
  check_time "minutes" 180.0 (sec_f (Time.minutes 3));
  check_time "of_sec_f roundtrip" 3.88 (sec_f (Time.of_sec_f 3.88))

let test_time_arith () =
  let t = Time.add (Time.sec 1) (Time.ms 500) in
  check_time "add" 1.5 (sec_f t);
  check_time "diff" 0.5 (sec_f (Time.diff t (Time.sec 1)));
  check_time "mul" 4.5 (sec_f (Time.mul t 3));
  check_time "scale" 0.75 (sec_f (Time.scale t 0.5));
  Alcotest.(check bool) "lt" true Time.(Time.sec 1 < Time.sec 2);
  Alcotest.(check bool) "ge" true Time.(Time.sec 2 >= Time.sec 2);
  Alcotest.(check bool) "neg" true (Time.is_negative (Time.diff Time.zero (Time.sec 1)))

let test_time_pp () =
  let str t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "s" "3.88s" (str (Time.of_sec_f 3.88));
  Alcotest.(check string) "ms" "29.91ms" (str (Time.of_sec_f 0.02991));
  Alcotest.(check string) "us" "1.70us" (str (Time.of_sec_f 1.7e-6));
  Alcotest.(check string) "ns" "250ns" (str (Time.ns 250))

let test_time_invalid () =
  Alcotest.check_raises "nan" (Invalid_argument "Time.of_sec_f: not finite") (fun () ->
      ignore (Time.of_sec_f Float.nan))

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L and b = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:7L and b = Prng.create ~seed:8L in
  Alcotest.(check bool) "different streams" true (Prng.next_int64 a <> Prng.next_int64 b)

let test_prng_split_independent () =
  let a = Prng.create ~seed:7L in
  let c = Prng.split a in
  let v1 = Prng.next_int64 c in
  (* Draws from the parent must not change the child's future. *)
  ignore (Prng.next_int64 a);
  let d = Prng.split (Prng.create ~seed:7L) in
  Alcotest.(check int64) "split deterministic" v1 (Prng.next_int64 d)

let prng_range_prop =
  QCheck.Test.make ~name:"prng int/float stay in range" ~count:500
    QCheck.(pair (int_bound 60) small_int)
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let p = Prng.create ~seed:(Int64.of_int seed) in
      let i = Prng.int p bound in
      let f = Prng.float p (float_of_int bound) in
      i >= 0 && i < bound && f >= 0.0 && f < float_of_int bound)

let prng_shuffle_prop =
  QCheck.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck.(pair (small_list int) int)
    (fun (l, seed) ->
      let arr = Array.of_list l in
      Prng.shuffle (Prng.create ~seed:(Int64.of_int seed)) arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let test_prng_exponential_mean () =
  let p = Prng.create ~seed:42L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential p ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean within 5%" true (Float.abs (mean -. 5.0) < 0.25)

(* ------------------------------------------------------------------ *)
(* Pheap: the heap the heap-only oracle Sim runs on *)

module Pheap = Engine_oracle.Pheap

let pheap_sorted_prop =
  QCheck.Test.make ~name:"pheap pops keys in order" ~count:300
    QCheck.(small_list (pair (int_bound 1000) unit))
    (fun l ->
      let h = Pheap.create () in
      List.iteri (fun i (k, ()) -> Pheap.add h ~key:k ~seq:i k) l;
      let rec drain acc = if Pheap.is_empty h then List.rev acc else drain (Pheap.pop h :: acc) in
      drain [] = List.sort compare (List.map fst l))

let pheap_random_ops_prop =
  (* Heap order under an arbitrary interleaving of adds and pops, checked
     against a sorted-list model — [pheap_sorted_prop] only covers the
     add-everything-then-drain pattern. *)
  QCheck.Test.make ~name:"pheap heap order under interleaved add/pop" ~count:300
    QCheck.(pair small_int (small_list bool))
    (fun (salt, ops) ->
      let prng = Prng.create ~seed:(Int64.add Qsuite.seed (Int64.of_int salt)) in
      let h = Pheap.create () in
      let model = ref [] and seq = ref 0 and ok = ref true in
      List.iter
        (fun is_add ->
          if is_add then begin
            let k = Prng.int prng 50 in
            Pheap.add h ~key:k ~seq:!seq (k, !seq);
            model := (k, !seq) :: !model;
            incr seq
          end
          else
            match List.sort compare !model with
            | [] -> if not (Pheap.is_empty h) then ok := false
            | best :: rest ->
              if Pheap.pop h <> best then ok := false;
              model := rest)
        ops;
      let rec drain acc =
        if Pheap.is_empty h then List.rev acc else drain (Pheap.pop h :: acc)
      in
      !ok && drain [] = List.sort compare !model)

let test_pheap_fifo_at_same_key () =
  let h = Pheap.create () in
  List.iteri (fun i v -> Pheap.add h ~key:5 ~seq:i v) [ "a"; "b"; "c"; "d" ];
  let out = List.init 4 (fun _ -> Pheap.pop h) in
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c"; "d" ] out

let test_pheap_empty_pop () =
  let h = Pheap.create () in
  Alcotest.check_raises "pop empty" Not_found (fun () -> ignore (Pheap.pop (h : int Pheap.t)))

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_sleep_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 2);
      log := ("b", sec_f (Sim.now sim)) :: !log);
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 1);
      log := ("a", sec_f (Sim.now sim)) :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "wakeups in time order"
    [ ("a", 1.0); ("b", 2.0) ]
    (List.rev !log)

let test_sim_fifo_same_instant () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.spawn sim (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "spawn order preserved" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_sim_nested_spawn_and_clock () =
  let sim = Sim.create () in
  let finished = ref 0.0 in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 1);
      Sim.spawn sim (fun () ->
          Sim.sleep (Time.sec 3);
          finished := sec_f (Sim.now sim));
      Sim.sleep (Time.sec 1));
  Sim.run sim;
  check_time "inner fiber time" 4.0 !finished

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~after:(Time.sec 1) (fun () -> fired := true) in
  Sim.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "cancelled event did not fire" false !fired

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim (fun () ->
      for _ = 1 to 10 do
        Sim.sleep (Time.sec 1);
        incr count
      done);
  Sim.run_until sim (Time.of_sec_f 4.5);
  Alcotest.(check int) "only events before limit" 4 !count;
  check_time "clock set to limit" 4.5 (sec_f (Sim.now sim));
  Sim.run sim;
  Alcotest.(check int) "resumable" 10 !count

let test_sim_deadlock_detection () =
  let sim = Sim.create () in
  Sim.spawn sim ~name:"stuck" (fun () -> Sim.suspend (fun _resume -> ()));
  match Sim.run sim with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Deadlock [ name ] ->
    Alcotest.(check bool) "names the fiber" true (String.length name > 0 && String.sub name 0 5 = "stuck")
  | exception Sim.Deadlock names ->
    Alcotest.fail (Printf.sprintf "expected 1 stuck fiber, got %d" (List.length names))

let test_sim_deadlock_names_sorted () =
  (* Names are formatted only when the deadlock is reported; finished
     fibers are not listed. *)
  let sim = Sim.create () in
  List.iter
    (fun name ->
      Sim.spawn sim ~name (fun () ->
          if name <> "done" then Sim.suspend (fun _resume -> ())))
    [ "worker"; "rank"; "done"; "worker"; "agent" ];
  match Sim.run sim with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sim.Deadlock names ->
    Alcotest.(check (list string))
      "sorted name#id" [ "agent#4"; "rank#1"; "worker#0"; "worker#3" ] names

let test_sim_schedule_past_rejected () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 1);
      Alcotest.check_raises "past" (Invalid_argument "Sim.schedule_at: time is in the past")
        (fun () -> ignore (Sim.schedule_at sim Time.zero (fun () -> ()))));
  Sim.run sim

let test_sim_exception_propagates () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> failwith "boom");
  Alcotest.check_raises "fiber exception aborts run" (Failure "boom") (fun () -> Sim.run sim)

let test_sim_determinism () =
  let observe () =
    let sim = Sim.create ~seed:9L () in
    let log = Buffer.create 64 in
    for i = 1 to 4 do
      Sim.spawn sim (fun () ->
          let d = Prng.int (Sim.prng sim) 1000 in
          Sim.sleep (Time.ms d);
          Buffer.add_string log (Printf.sprintf "%d@%f;" i (sec_f (Sim.now sim))))
    done;
    Sim.run sim;
    Buffer.contents log
  in
  Alcotest.(check string) "identical replays" (observe ()) (observe ())

let test_sim_cancel_same_instant () =
  let sim = Sim.create () in
  let ran = ref [] in
  ignore
    (Sim.schedule sim ~after:(Time.sec 1) (fun () ->
         let h = Sim.schedule sim ~after:Time.zero (fun () -> ran := "cancelled" :: !ran) in
         ignore (Sim.schedule sim ~after:Time.zero (fun () -> ran := "kept" :: !ran));
         Sim.cancel sim h));
  Sim.run sim;
  Alcotest.(check (list string)) "never runs" [ "kept" ] !ran;
  Alcotest.(check int) "not counted" 2 (Sim.events_processed sim);
  Alcotest.(check int) "nothing pending" 0 (Sim.pending sim)

let test_sim_cancel_fired_or_cancelled () =
  (* A stale handle must not take another event's heap slot with it. *)
  let sim = Sim.create () in
  let log = ref [] in
  let at s = Sim.schedule sim ~after:(Time.sec s) (fun () -> log := s :: !log) in
  let a = at 1 in
  let b = at 2 in
  ignore (at 3);
  ignore (at 4);
  Sim.run_until sim (Time.of_sec_f 1.5);
  Sim.cancel sim a;
  Sim.cancel sim b;
  Sim.cancel sim b;
  Alcotest.(check int) "one cancel counted" 2 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list int)) "the others fire" [ 1; 3; 4 ] (List.rev !log)

let test_sim_cancelled_timer_keeps_clock () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~after:(Time.sec 1) ignore);
  let far = Sim.schedule sim ~after:(Time.sec 100) ignore in
  Sim.cancel sim far;
  Sim.run sim;
  check_time "clock at the last live event" 1.0 (sec_f (Sim.now sim))

let test_sim_run_until_below_now () =
  let sim = Sim.create () in
  Sim.run_until sim (Time.sec 5);
  let log = ref [] in
  ignore (Sim.schedule sim ~after:Time.zero (fun () -> log := "now" :: !log));
  ignore (Sim.schedule sim ~after:(Time.sec 1) (fun () -> log := "later" :: !log));
  Sim.run_until sim (Time.sec 3);
  Alcotest.(check (list string)) "nothing ran" [] !log;
  check_time "clock unchanged" 5.0 (sec_f (Sim.now sim));
  Sim.run sim;
  Alcotest.(check (list string)) "both run later" [ "now"; "later" ] (List.rev !log);
  check_time "clock" 6.0 (sec_f (Sim.now sim))

(* Heap removal keeps the heap ordered: up to 300 events at colliding
   times, a random third cancelled before a partial run and another third
   after it, and the survivors fire in (time, scheduling order). *)
let sim_cancel_order_prop =
  QCheck.Test.make ~name:"sim fires the survivors of random cancels in order" ~count:300
    QCheck.(pair small_int (int_range 1 300))
    (fun (salt, n) ->
      let prng = Prng.create ~seed:(Int64.add Qsuite.seed (Int64.of_int salt)) in
      let sim = Sim.create () in
      let fired = ref [] in
      let keys = Array.init n (fun _ -> Prng.int prng 40) in
      let handles =
        Array.mapi (fun i k -> Sim.schedule_at sim (Time.ns k) (fun () -> fired := i :: !fired)) keys
      in
      let cancel_third () =
        let gone = Array.make n false in
        for _ = 1 to n / 3 do
          let i = Prng.int prng n in
          gone.(i) <- true;
          Sim.cancel sim handles.(i)
        done;
        gone
      in
      let before = cancel_third () in
      Sim.run_until sim (Time.ns 10);
      let after = cancel_third () in
      Sim.run sim;
      let in_order ok =
        List.filter ok (List.init n Fun.id)
        |> List.stable_sort (fun i j -> compare keys.(i) keys.(j))
      in
      List.rev !fired
      = in_order (fun i -> keys.(i) <= 10 && not before.(i))
        @ in_order (fun i -> keys.(i) > 10 && not (before.(i) || after.(i))))

let test_sim_pending_per_cancel () =
  let sim = Sim.create () in
  (* Three at the current instant, nine in the heap. *)
  let handles = List.init 12 (fun i -> Sim.schedule sim ~after:(Time.ms (i mod 4)) ignore) in
  Alcotest.(check int) "all pending" 12 (Sim.pending sim);
  Alcotest.(check int) "heap insertions" 9 (Sim.heap_insertions sim);
  List.iteri
    (fun i h ->
      Sim.cancel sim h;
      Alcotest.(check int) "one fewer" (11 - i) (Sim.pending sim))
    handles;
  Sim.run sim;
  Alcotest.(check int) "none ran" 0 (Sim.events_processed sim)

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_fill_then_read () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  Ivar.fill iv 42;
  let got = ref 0 in
  Sim.spawn sim (fun () -> got := Ivar.read iv);
  Sim.run sim;
  Alcotest.(check int) "read after fill" 42 !got

let test_ivar_read_blocks () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  let got = ref (0, 0.0) in
  Sim.spawn sim (fun () ->
      let v = Ivar.read iv in
      got := (v, sec_f (Sim.now sim)));
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 3);
      Ivar.fill iv 7);
  Sim.run sim;
  Alcotest.(check (pair int (float 1e-9))) "woken at fill time" (7, 3.0) !got

let test_ivar_multiple_readers_fifo () =
  let sim = Sim.create () in
  let iv = Ivar.create () in
  let log = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        ignore (Ivar.read iv);
        log := i :: !log)
  done;
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 1);
      Ivar.fill iv ());
  Sim.run sim;
  Alcotest.(check (list int)) "readers woken in order" [ 1; 2; 3 ] (List.rev !log)

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.(check bool) "fill_if_empty refuses" false (Ivar.fill_if_empty iv 2);
  Alcotest.(check (option int)) "peek" (Some 1) (Ivar.peek iv);
  Alcotest.check_raises "fill raises" (Invalid_argument "Ivar.fill: already full") (fun () ->
      Ivar.fill iv 2)

(* ------------------------------------------------------------------ *)
(* Channel *)

let test_channel_fifo () =
  let sim = Sim.create () in
  let ch = Channel.create () in
  let out = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        out := Channel.recv ch :: !out
      done);
  Sim.spawn sim (fun () ->
      List.iter (Channel.send ch) [ "x"; "y"; "z" ]);
  Sim.run sim;
  Alcotest.(check (list string)) "fifo" [ "x"; "y"; "z" ] (List.rev !out)

let test_channel_blocking_recv () =
  let sim = Sim.create () in
  let ch = Channel.create () in
  let at = ref 0.0 in
  Sim.spawn sim (fun () ->
      ignore (Channel.recv ch);
      at := sec_f (Sim.now sim));
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 5);
      Channel.send ch ());
  Sim.run sim;
  check_time "recv completes at send time" 5.0 !at

let test_channel_try_recv () =
  let ch = Channel.create () in
  Alcotest.(check (option int)) "empty" None (Channel.try_recv ch);
  Channel.send ch 9;
  Alcotest.(check (option int)) "one" (Some 9) (Channel.try_recv ch);
  Alcotest.(check bool) "empty again" true (Channel.is_empty ch)

(* ------------------------------------------------------------------ *)
(* Semaphore *)

let test_semaphore_mutex () =
  let sim = Sim.create () in
  let sem = Semaphore.create 1 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 4 do
    Sim.spawn sim (fun () ->
        Semaphore.with_permit sem (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Sim.sleep (Time.sec 1);
            decr inside))
  done;
  Sim.run sim;
  Alcotest.(check int) "never concurrent" 1 !max_inside;
  check_time "serialised" 4.0 (sec_f (Sim.now sim))

let test_semaphore_counting () =
  let sim = Sim.create () in
  let sem = Semaphore.create 2 in
  Sim.spawn sim (fun () ->
      Semaphore.acquire sem;
      Semaphore.acquire sem;
      Alcotest.(check bool) "exhausted" false (Semaphore.try_acquire sem);
      Semaphore.release sem;
      Alcotest.(check bool) "released" true (Semaphore.try_acquire sem));
  Sim.run sim

let test_semaphore_fifo_handoff () =
  let sim = Sim.create () in
  let sem = Semaphore.create 0 in
  let order = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Semaphore.acquire sem;
        order := i :: !order)
  done;
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 1);
      for _ = 1 to 3 do
        Semaphore.release sem
      done);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo handoff" [ 1; 2; 3 ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Ps_resource *)

let test_ps_single_task_exact () =
  let sim = Sim.create () in
  let cpu = Ps_resource.create sim ~name:"cpu" ~capacity:8.0 in
  let finished = ref 0.0 in
  Sim.spawn sim (fun () ->
      Ps_resource.consume cpu ~demand:1.0 ~work:3.0;
      finished := sec_f (Sim.now sim));
  Sim.run sim;
  check_time "1 core for 3 core-sec = 3 s" 3.0 !finished

let test_ps_overcommit_halves_rate () =
  (* 16 unit-demand tasks on 8 cores: everyone runs at 0.5. *)
  let sim = Sim.create () in
  let cpu = Ps_resource.create sim ~name:"cpu" ~capacity:8.0 in
  let finish = Array.make 16 0.0 in
  for i = 0 to 15 do
    Sim.spawn sim (fun () ->
        Ps_resource.consume cpu ~demand:1.0 ~work:5.0;
        finish.(i) <- sec_f (Sim.now sim))
  done;
  Sim.run sim;
  Array.iter (fun f -> check_time "5 core-sec at rate 0.5" 10.0 f) finish

let test_ps_waterfill_mixed_demands () =
  (* cap 2.0, demands [0.5; 1.0; 1.0]: the small task gets 0.5 and the two
     big ones split the rest at 0.75 each. *)
  let sim = Sim.create () in
  let cpu = Ps_resource.create sim ~name:"cpu" ~capacity:2.0 in
  let t_small = ref 0.0 and t_big = ref 0.0 in
  Sim.spawn sim (fun () ->
      Ps_resource.consume cpu ~demand:0.5 ~work:1.0;
      t_small := sec_f (Sim.now sim));
  Sim.spawn sim (fun () ->
      Ps_resource.consume cpu ~demand:1.0 ~work:1.5;
      t_big := sec_f (Sim.now sim));
  Sim.spawn sim (fun () ->
      Ps_resource.consume cpu ~demand:1.0 ~work:4.5;
      ());
  Sim.run sim;
  check_time "small task unimpeded" 2.0 !t_small;
  check_time "big task at 0.75" 2.0 !t_big

let test_ps_dynamic_join () =
  (* Task A alone for 1 s at rate 1, then B joins; on capacity 1 they share
     at 0.5. A has 1 unit left -> finishes at 1 + 2 = 3 s. *)
  let sim = Sim.create () in
  let cpu = Ps_resource.create sim ~name:"cpu" ~capacity:1.0 in
  let t_a = ref 0.0 in
  Sim.spawn sim (fun () ->
      Ps_resource.consume cpu ~demand:1.0 ~work:2.0;
      t_a := sec_f (Sim.now sim));
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 1);
      Ps_resource.consume cpu ~demand:1.0 ~work:2.0);
  Sim.run sim;
  check_time "join slows the first task" 3.0 !t_a;
  (* B: 1 unit done while sharing (t=1..3), 1 unit alone -> ends at 4 s. *)
  check_time "whole run" 4.0 (sec_f (Sim.now sim))

let test_ps_cancel () =
  let sim = Sim.create () in
  let cpu = Ps_resource.create sim ~name:"cpu" ~capacity:1.0 in
  let woke = ref 0.0 in
  Sim.spawn sim (fun () ->
      let task = Ps_resource.start cpu ~demand:1.0 ~work:100.0 in
      Sim.spawn sim (fun () ->
          Sim.sleep (Time.sec 2);
          Ps_resource.cancel cpu task);
      Ps_resource.await task;
      woke := sec_f (Sim.now sim));
  Sim.run sim;
  check_time "cancel wakes waiter" 2.0 !woke;
  Alcotest.(check int) "no active tasks" 0 (Ps_resource.active cpu)

let test_ps_zero_work () =
  let sim = Sim.create () in
  let cpu = Ps_resource.create sim ~name:"cpu" ~capacity:1.0 in
  let ok = ref false in
  Sim.spawn sim (fun () ->
      Ps_resource.consume cpu ~demand:1.0 ~work:0.0;
      ok := true);
  Sim.run sim;
  Alcotest.(check bool) "zero work completes" true !ok

let test_ps_rerate_one_timer () =
  (* Every change cancels the completion timer at once, and the set
     re-rates and re-arms once per instant: 10,000 changes (5,000 starts,
     each cancelled) before any event runs leave one queued flush and no
     timer; running the instant runs the water-fill once and arms exactly
     one timer. *)
  let sim = Sim.create () in
  let cpu = Ps_resource.create sim ~name:"cpu" ~capacity:1.0 in
  let task = Ps_resource.start cpu ~demand:1.0 ~work:5.0 in
  for _ = 1 to 5_000 do
    Ps_resource.cancel cpu (Ps_resource.start cpu ~demand:1.0 ~work:5.0)
  done;
  Alcotest.(check int) "no timer armed yet" 0 (Sim.pending sim);
  Alcotest.(check int) "no re-rate yet" 0 (Ps_resource.rerates cpu);
  Sim.run_until sim Time.zero;
  Alcotest.(check int) "one flush ran" 1 (Ps_resource.rerates cpu);
  Alcotest.(check int) "the flush is no event" 0 (Sim.events_processed sim);
  Alcotest.(check int) "one pending completion timer" 1 (Sim.pending sim);
  Alcotest.(check int) "one heap insertion" 1 (Sim.heap_insertions sim);
  let finished = ref 0.0 in
  Sim.spawn sim (fun () ->
      Ps_resource.await task;
      finished := sec_f (Sim.now sim));
  Sim.run sim;
  check_time "completes at full capacity" 5.0 !finished

(* A task with at most ε of work completes inside [add], before any event
   runs: this held before re-rating was deferred, and still does. *)
let test_rated_tiny_work_done_in_add () =
  let sim = Sim.create () in
  let set = Rated.create sim ~name:"set" ~rerate:(fun set ->
      for i = 0 to Rated.length set - 1 do
        Rated.set_rate (Rated.get set i) 1.0
      done)
  in
  let big = Rated.add set ~payload:() ~work:1.0 in
  List.iter
    (fun work ->
      let task = Rated.add set ~payload:() ~work in
      Alcotest.(check bool) (Printf.sprintf "work %g done in add" work) true (Rated.is_done task))
    [ 0.0; 5e-7; 1e-6 ];
  Alcotest.(check bool) "1 unit still running" false (Rated.is_done big);
  Alcotest.(check int) "only the big task is left" 1 (Rated.length set);
  Alcotest.(check int) "no event has run" 0 (Sim.events_processed sim);
  Sim.run sim;
  Alcotest.(check bool) "the big task completes" true (Rated.is_done big);
  check_time "at its own pace" 1.0 (sec_f (Sim.now sim))

let ps_work_conservation_prop =
  (* Total completion time of n equal tasks = total work / min(capacity,
     total demand): processor sharing conserves work. *)
  QCheck.Test.make ~name:"ps conserves work" ~count:100
    QCheck.(pair (int_range 1 12) (int_range 1 8))
    (fun (n, cap) ->
      let sim = Sim.create () in
      let cpu = Ps_resource.create sim ~name:"cpu" ~capacity:(float_of_int cap) in
      let work = 4.0 in
      for _ = 1 to n do
        Sim.spawn sim (fun () -> Ps_resource.consume cpu ~demand:1.0 ~work)
      done;
      Sim.run sim;
      let expected = float_of_int n *. work /. Float.min (float_of_int cap) (float_of_int n) in
      Float.abs (sec_f (Sim.now sim) -. expected) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Rated *)

let rated_conservation_prop =
  (* Under an equal-share policy the set always serves exactly [capacity]
     units/s while any task is active, so the makespan of tasks started
     together is total work / capacity regardless of how the work is
     split — the rate limit is conserved, never overshot or leaked. *)
  QCheck.Test.make ~name:"rated equal-share conserves capacity" ~count:200
    QCheck.(pair (int_range 1 6) (list_of_size Gen.(int_range 1 10) (int_range 1 50)))
    (fun (cap, works) ->
      let sim = Sim.create () in
      let capacity = float_of_int cap in
      let rerate set =
        let n = Rated.length set in
        for i = 0 to n - 1 do
          Rated.set_rate (Rated.get set i) (capacity /. float_of_int n)
        done
      in
      let set = Rated.create sim ~name:"net" ~rerate in
      Sim.spawn sim (fun () ->
          let tasks =
            List.map (fun w -> Rated.add set ~payload:() ~work:(float_of_int w)) works
          in
          List.iter Rated.await tasks);
      Sim.run sim;
      let total = float_of_int (List.fold_left ( + ) 0 works) in
      Float.abs (sec_f (Sim.now sim) -. (total /. capacity)) < 1e-6)

let rated_cancel_conservation_prop =
  (* Cancelling a task mid-flight must release its share to the others:
     serve [big] alone after cancelling [small] at t=0+ and the makespan
     is still (work actually served) / capacity. *)
  QCheck.Test.make ~name:"rated cancel re-rates survivors" ~count:100
    QCheck.(pair (int_range 1 4) (int_range 2 40))
    (fun (cap, work) ->
      let sim = Sim.create () in
      let capacity = float_of_int cap in
      let rerate set =
        let n = Rated.length set in
        for i = 0 to n - 1 do
          Rated.set_rate (Rated.get set i) (capacity /. float_of_int n)
        done
      in
      let set = Rated.create sim ~name:"net" ~rerate in
      let w = float_of_int work in
      Sim.spawn sim (fun () ->
          let keep = Rated.add set ~payload:() ~work:w in
          let dropped = Rated.add set ~payload:() ~work:w in
          (* Let both run at capacity/2 for 1 s, then cancel one. *)
          Sim.sleep (Time.sec 1);
          Rated.cancel set dropped;
          Rated.await keep);
      Sim.run sim;
      (* keep: capacity/2 for 1 s, then full capacity for the rest. *)
      let expected = 1.0 +. ((w -. (capacity /. 2.0)) /. capacity) in
      Float.abs (sec_f (Sim.now sim) -. expected) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Differential: the array-backed Rated and Ps_resource against the
   list-based implementations they replaced (Engine_oracle). Both run the
   same random program; their transcripts must be byte-identical. *)

module type RATED = sig
  type 'a t

  type 'a task

  type 'a change = Joined of 'a task | Left of 'a task

  val create : Sim.t -> name:string -> rerate:('a t -> unit) -> 'a t

  val changes : 'a t -> 'a change list

  val add : 'a t -> payload:'a -> work:float -> 'a task

  val await : 'a task -> unit

  val cancel : 'a t -> 'a task -> unit

  val active : 'a t -> 'a task list

  val payload : 'a task -> 'a

  val rate : 'a task -> float

  val set_rate : 'a task -> float -> unit

  val is_done : 'a task -> bool
end

module type PS = sig
  type t

  type task

  val create : Sim.t -> name:string -> capacity:float -> t

  val start : t -> demand:float -> work:float -> task

  val await : task -> unit

  val cancel : t -> task -> unit

  val active : t -> int

  val load : t -> float

  val utilization : t -> float
end

type op =
  | Start of float * float  (** demand, work *)
  | Race of float * float  (** demand, work: a fiber's start, then a sleep to its ETA *)
  | Cancel of int  (** the i-th started task, if any *)
  | Sleep of float

let pp_op = function
  | Start (d, w) -> Printf.sprintf "start(%g,%g)" d w
  | Race (d, w) -> Printf.sprintf "race(%g,%g)" d w
  | Cancel i -> Printf.sprintf "cancel(%d)" i
  | Sleep s -> Printf.sprintf "sleep(%g)" s

(* Bytes and bytes per second: the [giga] set runs every task at 1e9
   times its work and capacity plus an odd fraction of a byte, so tasks
   that would finish together finish a fraction of a nanosecond apart,
   and their timers re-arm with spans that round to zero. *)
let giga = 1e9

let odd_bytes id = float_of_int (id mod 5) *. 0.15

(* What a run shows: [lines] is everything written outside the policy
   callbacks — per-step rates read through the barrier, is_done, events,
   load and utilisation, and every completion with its ns; [deltas] is
   each set's whole stream of membership deltas its callbacks saw, which
   the coalescing set may deliver in fewer calls ([callbacks]). *)
type transcript = { lines : string; deltas : string; callbacks : int }

(* Every task goes to a Ps_resource and, with the same demand and work, to
   a raw Rated set re-rated by a water-fill written against the generic
   API, and to the [giga] set. A task's waiter starts a zero-work task
   (an echo, id + 10000) in its set when woken, so changes also come from
   fibers other than the program's, at instants where other events are
   already queued: the order in which same-instant events fire (and hence
   the sequence numbers the timers take) shows up as line order. A race
   fiber starts a raw task and sleeps to exactly its ETA, so its wake-up
   shares a key with the timer that change armed. Floats print as %h, so
   equal transcripts mean bit-equal values. *)
module Transcript (R : RATED) (P : PS) = struct
  let run ops =
    let sim = Sim.create () in
    let log = Buffer.create 4096 and callbacks = ref 0 in
    let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') log fmt in
    let ns () = Time.to_ns (Sim.now sim) in
    let cap = 2.0 in
    let cpu = P.create sim ~name:"cpu" ~capacity:cap in
    let rerate deltas scale set =
      incr callbacks;
      let id task = fst (R.payload task) and demand task = snd (R.payload task) in
      List.iter
        (function
          | R.Joined task -> Printf.bprintf deltas "+%d " (id task)
          | R.Left task -> Printf.bprintf deltas "-%d " (id task))
        (R.changes set);
      let tasks =
        List.stable_sort (fun a b -> Float.compare (demand a) (demand b)) (R.active set)
      in
      let left = ref (List.length tasks) and residual = ref (cap *. scale) in
      List.iter
        (fun task ->
          let r = Float.min (demand task) (!residual /. float_of_int !left) in
          R.set_rate task r;
          residual := !residual -. r;
          decr left)
        tasks
    in
    let deltas = Buffer.create 1024 and gdeltas = Buffer.create 1024 in
    let set = R.create sim ~name:"set" ~rerate:(rerate deltas 1.0) in
    let gset = R.create sim ~name:"giga" ~rerate:(rerate gdeltas giga) in
    let started = ref [||] and raced = ref [||] in
    let echo set id demand = ignore (R.add set ~payload:(id + 10_000, demand) ~work:0.0) in
    Sim.spawn sim ~name:"program" (fun () ->
        List.iteri
          (fun step op ->
            (match op with
            | Start (demand, work) ->
              let id = Array.length !started in
              let pt = P.start cpu ~demand ~work in
              let rt = R.add set ~payload:(id, demand) ~work in
              let gt =
                R.add gset ~payload:(id, demand *. giga) ~work:((work *. giga) +. odd_bytes id)
              in
              started := Array.append !started [| (pt, rt, gt) |];
              Sim.spawn sim (fun () ->
                  P.await pt;
                  line "ps %d done %Ld" id (ns ());
                  ignore (P.start cpu ~demand ~work:0.0));
              Sim.spawn sim (fun () ->
                  R.await rt;
                  line "rated %d done %Ld" id (ns ());
                  echo set id demand);
              Sim.spawn sim (fun () ->
                  R.await gt;
                  line "giga %d done %Ld" id (ns ());
                  echo gset id (demand *. giga))
            | Race (demand, work) ->
              let id = 1000 + Array.length !raced in
              Sim.spawn sim (fun () ->
                  let rt = R.add set ~payload:(id, demand) ~work in
                  raced := Array.append !raced [| rt |];
                  let r = R.rate rt in
                  if r > 0.0 then Sim.sleep (Time.of_sec_f (work /. r));
                  line "race %d woke %Ld done %b" id (ns ()) (R.is_done rt);
                  echo set id demand)
            | Cancel i ->
              if i < Array.length !started then begin
                let pt, rt, gt = !started.(i) in
                P.cancel cpu pt;
                R.cancel set rt;
                R.cancel gset gt
              end
            | Sleep s -> Sim.sleep (Time.of_sec_f s));
            line "step %d %s at %Ld events %d active %d load %h util %h" step (pp_op op) (ns ())
              (Sim.events_processed sim) (P.active cpu) (P.load cpu) (P.utilization cpu);
            Array.iteri
              (fun i (_, rt, gt) ->
                line "  task %d rate %h done %b giga %h done %b" i (R.rate rt) (R.is_done rt)
                  (R.rate gt) (R.is_done gt))
              !started;
            Array.iteri
              (fun i rt -> line "  race %d rate %h done %b" (1000 + i) (R.rate rt) (R.is_done rt))
              !raced)
          ops);
    Sim.run sim;
    line "end %Ld events %d" (ns ()) (Sim.events_processed sim);
    {
      lines = Buffer.contents log;
      deltas = Printf.sprintf "set: %s\n  giga: %s" (Buffer.contents deltas) (Buffer.contents gdeltas);
      callbacks = !callbacks;
    }
end

(* The array-backed set has no list of its tasks; the policy's list is
   built from its [length]/[get]. *)
module Fast =
  Transcript
    (struct
      include Rated

      let active set = List.init (length set) (get set)
    end)
    (Ps_resource)
module Reference = Transcript (Engine_oracle.Rated) (Engine_oracle.Ps_resource)

(* 1-40 starts among races, cancels and sleeps. Demands repeat so
   water-fill ties are common; works include zero and a sub-epsilon
   amount, which the sweep completes at once. *)
let program_gen =
  let open QCheck.Gen in
  let demand = oneofl [ 0.5; 1.0; 1.0; 2.0 ] in
  let work = oneofl [ 0.0; 5e-7; 0.25; 0.3; 0.5; 1.0; 1.0; 1.5; 2.0; 3.0 ] in
  let op =
    frequency
      [
        (4, map2 (fun d w -> Start (d, w)) demand work);
        (1, map2 (fun d w -> Race (d, w)) demand work);
        (1, map (fun i -> Cancel i) (int_bound 39));
        (3, map (fun s -> Sleep s) (oneofl [ 0.0; 0.1; 0.25; 0.5; 1.0; 1.7 ]));
      ]
  in
  let cap_starts ops =
    let rec go starts = function
      | [] -> []
      | (Start _ as o) :: rest -> if starts = 40 then go starts rest else o :: go (starts + 1) rest
      | o :: rest -> o :: go starts rest
    in
    Start (1.0, 1.0) :: go 1 ops
  in
  map cap_starts (list_size (int_range 0 120) op)

(* The first line where two transcripts part, for the failure report. *)
let first_difference a b =
  let rec go i = function
    | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end>")
    | [], y :: _ -> Some (i, "<end>", y)
    | [], [] -> None
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

let rated_matches_oracle_prop =
  QCheck.Test.make ~name:"rated and ps_resource match the list-based oracle" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat " " (List.map pp_op ops)) program_gen)
    (fun ops ->
      let fast = Fast.run ops and reference = Reference.run ops in
      match first_difference fast.lines reference.lines with
      | Some (line, fast, reference) ->
        QCheck.Test.fail_reportf "line %d:\n  array: %s\n  list:  %s" line fast reference
      | None ->
        if not (String.equal fast.deltas reference.deltas) then
          QCheck.Test.fail_reportf "delta streams differ:\n  array: %s\n  list:  %s" fast.deltas
            reference.deltas;
        if fast.callbacks > reference.callbacks then
          QCheck.Test.fail_reportf "%d policy calls, the eager reference made %d" fast.callbacks
            reference.callbacks;
        true)

(* ------------------------------------------------------------------ *)
(* Differential: Sim's same-instant FIFO and indexed heap against the
   heap-only Sim they replaced (Engine_oracle.Heap_sim). Both run the same
   random program of raw events, cancels, fibers, suspends, resumes and
   run_until calls; their transcripts must be identical. *)

module type SIM = sig
  type t

  type handle

  exception Deadlock of string list

  val create : ?seed:int64 -> unit -> t

  val now : t -> Time.t

  val events_processed : t -> int

  val schedule : t -> after:Time.span -> (unit -> unit) -> handle

  val schedule_at : t -> Time.t -> (unit -> unit) -> handle

  val cancel : t -> handle -> unit

  val spawn : t -> ?name:string -> (unit -> unit) -> unit

  val sleep : Time.span -> unit

  val suspend : ((unit -> unit) -> unit) -> unit

  val run : t -> unit

  val run_until : t -> Time.t -> unit
end

module Heap_sim = struct
  include Engine_oracle.Heap_sim

  let cancel _ h = cancel h
end

(* Offsets are in ns, from a small range so that keys collide. *)
type act =
  | At of int * act list  (** [schedule_at] now + offset *)
  | After of int * act list  (** [schedule ~after], negative offsets included *)
  | Cancel of int  (** the k-th handle (mod count): pending, due now, fired or cancelled *)
  | Spawn of fiber_op list
  | Resume of int  (** the k-th registered resume (mod count), possibly again *)

and fiber_op = Sleep_ns of int | Suspend | Act of act

type step = Do of act | Until of int  (** [run_until] now + offset, negative included *)

let rec pp_act = function
  | At (d, body) -> Printf.sprintf "at(%d)[%s]" d (pp_acts body)
  | After (d, body) -> Printf.sprintf "after(%d)[%s]" d (pp_acts body)
  | Cancel k -> Printf.sprintf "cancel(%d)" k
  | Spawn ops ->
    Printf.sprintf "spawn{%s}"
      (String.concat " "
         (List.map
            (function
              | Sleep_ns d -> Printf.sprintf "sleep(%d)" d
              | Suspend -> "suspend"
              | Act a -> pp_act a)
            ops))
  | Resume k -> Printf.sprintf "resume(%d)" k

and pp_acts acts = String.concat " " (List.map pp_act acts)

let pp_step = function Do a -> pp_act a | Until d -> Printf.sprintf "until(%+d)" d

(* Each firing logs its id and time; each run_until logs the clock and
   the event count; the run ends with its Deadlock payload, if any. *)
module Sim_transcript (S : SIM) = struct
  let run steps =
    let sim = S.create () in
    let log = Buffer.create 1024 in
    let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') log fmt in
    let ns () = Time.to_int (S.now sim) in
    let handles = ref [||] and resumes = ref [||] and ids = ref 0 in
    let nth arr k = if Array.length !arr = 0 then None else Some !arr.(k mod Array.length !arr) in
    let fresh () =
      incr ids;
      !ids
    in
    let rec act = function
      | At (d, body) -> arm (fun run -> S.schedule_at sim (Time.ns (ns () + d)) run) body
      | After (d, body) -> arm (fun run -> S.schedule sim ~after:(Time.ns d) run) body
      | Cancel k -> Option.iter (S.cancel sim) (nth handles k)
      | Spawn ops ->
        let id = fresh () in
        S.spawn sim ~name:(Printf.sprintf "f%d" id) (fun () ->
            line "f%d start %d" id (ns ());
            List.iter (fiber_op id) ops;
            line "f%d end %d" id (ns ()))
      | Resume k -> Option.iter (fun resume -> resume ()) (nth resumes k)
    and arm schedule body =
      let id = fresh () in
      let h =
        schedule (fun () ->
            line "e%d fire %d" id (ns ());
            List.iter act body)
      in
      handles := Array.append !handles [| h |]
    and fiber_op id = function
      | Sleep_ns d ->
        S.sleep (Time.ns d);
        line "f%d woke %d" id (ns ())
      | Suspend ->
        S.suspend (fun resume -> resumes := Array.append !resumes [| resume |]);
        line "f%d resumed %d" id (ns ())
      | Act a -> act a
    in
    List.iter
      (function
        | Do a -> act a
        | Until d ->
          S.run_until sim (Time.ns (ns () + d));
          line "until %+d: now %d events %d" d (ns ()) (S.events_processed sim))
      steps;
    (match S.run sim with
    | () -> line "run: ok"
    | exception S.Deadlock names -> line "run: deadlock %s" (String.concat " " names));
    line "end: now %d events %d" (ns ()) (S.events_processed sim);
    Buffer.contents log
end

module Queue_transcript = Sim_transcript (Sim)
module Heap_transcript = Sim_transcript (Heap_sim)

let sim_program_gen =
  let open QCheck.Gen in
  let offset = frequency [ (4, return 0); (4, int_range 1 4); (1, return 7); (1, return (-1)) ] in
  let rec act depth =
    let leaves = [ (2, map (fun k -> Cancel k) small_nat); (1, map (fun k -> Resume k) small_nat) ] in
    if depth = 0 then frequency leaves
    else
      frequency
        (leaves
        @ [
            (3, map2 (fun d body -> At (max 0 d, body)) offset (acts (depth - 1)));
            (3, map2 (fun d body -> After (d, body)) offset (acts (depth - 1)));
            (2, map (fun ops -> Spawn ops) (list_size (int_range 1 4) (fiber_op (depth - 1))));
          ])
  and acts depth = list_size (int_bound 3) (act depth)
  and fiber_op depth =
    frequency
      [
        (3, map (fun d -> Sleep_ns d) offset);
        (2, return Suspend);
        (3, map (fun a -> Act a) (act depth));
      ]
  in
  list_size (int_range 1 25)
    (frequency [ (5, map (fun a -> Do a) (act 3)); (2, map (fun d -> Until d) (int_range (-2) 6)) ])

let sim_matches_oracle_prop =
  QCheck.Test.make ~name:"sim queue matches the heap-only oracle" ~count:500
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun steps -> String.concat "; " (List.map pp_step steps))
       sim_program_gen)
    (fun steps ->
      match first_difference (Queue_transcript.run steps) (Heap_transcript.run steps) with
      | None -> true
      | Some (line, queue, heap) ->
        QCheck.Test.fail_reportf "line %d:\n  queue: %s\n  heap:  %s" line queue heap)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Pool: domain-parallel task execution with deterministic collection *)

let test_pool_map_order () =
  Pool.with_pool ~size:4 (fun pool ->
      (* Uneven work so completion order differs from submission order. *)
      let f i =
        let acc = ref 0 in
        for _ = 1 to (17 - i) * 10_000 do
          incr acc
        done;
        ignore !acc;
        i * i
      in
      let xs = List.init 16 Fun.id in
      Alcotest.(check (list int)) "results line up with inputs" (List.map f xs)
        (Pool.map pool ~f xs))

let test_pool_size_one_serial () =
  Pool.with_pool ~size:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      Alcotest.(check (list int)) "runs in caller" [ 2; 4; 6 ]
        (Pool.map pool ~f:(fun x -> 2 * x) [ 1; 2; 3 ]))

exception Boom of int

let test_pool_exception_propagates () =
  Pool.with_pool ~size:2 (fun pool ->
      Alcotest.check_raises "first submitted failure wins" (Boom 1) (fun () ->
          ignore (Pool.map pool ~f:(fun i -> if i land 1 = 1 then raise (Boom i) else i) [ 0; 1; 2; 3 ]));
      (* The pool survives a failed batch. *)
      Alcotest.(check (list int)) "still usable" [ 1; 2 ] (Pool.map pool ~f:Fun.id [ 1; 2 ]))

let test_pool_nested_map () =
  (* A pooled task fans out again on the same pool: the helping await must
     keep everything moving even when tasks outnumber domains. *)
  Pool.with_pool ~size:2 (fun pool ->
      let grids =
        Pool.map pool
          ~f:(fun i -> Pool.map pool ~f:(fun j -> (10 * i) + j) [ 1; 2; 3 ])
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list (list int))) "nested results"
        [ [ 11; 12; 13 ]; [ 21; 22; 23 ]; [ 31; 32; 33 ]; [ 41; 42; 43 ] ]
        grids)

let test_pool_shutdown_rejects () =
  let pool = Pool.create ~size:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> ())))

(* Concurrent simulations on separate domains: the ambient-simulation
   reference is domain-local, so blocking calls inside one simulation's
   fibers must not observe another domain's simulation. *)
let test_pool_concurrent_sims () =
  Pool.with_pool ~size:4 (fun pool ->
      let run_sim seed =
        let sim = Sim.create ~seed:(Int64.of_int seed) () in
        let log = ref [] in
        for i = 1 to 5 do
          Sim.spawn sim (fun () ->
              Sim.sleep (Time.ms (i * seed));
              log := i :: !log)
        done;
        Sim.run sim;
        (Time.to_sec_f (Sim.now sim), List.rev !log)
      in
      let results = Pool.map pool ~f:run_sim [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
      List.iteri
        (fun idx (finished, log) ->
          let seed = idx + 1 in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "sim %d clock" seed)
            (float_of_int (5 * seed) /. 1000.0)
            finished;
          Alcotest.(check (list int)) "wakeup order" [ 1; 2; 3; 4; 5 ] log)
        results)

let test_pool_map_empty () =
  Pool.with_pool ~size:2 (fun pool ->
      Alcotest.(check (list int)) "empty in, empty out" [] (Pool.map pool ~f:(fun x -> x) []));
  Pool.with_pool ~size:1 (fun pool ->
      Alcotest.(check (list int)) "serial pool too" [] (Pool.map pool ~f:(fun x -> x) []))

let test_pool_zero_size_clamped () =
  (* size <= 0 clamps to 1 (caller-only) rather than spawning -1 domains
     or rejecting — a zero-width sweep configuration must stay usable. *)
  Pool.with_pool ~size:0 (fun pool ->
      Alcotest.(check int) "zero clamps to 1" 1 (Pool.size pool);
      Alcotest.(check (list int)) "usable" [ 2; 4 ] (Pool.map pool ~f:(fun x -> 2 * x) [ 1; 2 ]));
  Pool.with_pool ~size:(-3) (fun pool ->
      Alcotest.(check int) "negative clamps to 1" 1 (Pool.size pool))

let test_run_ctx_zero_size_pool () =
  Pool.with_pool ~size:0 (fun pool ->
      let ctx = Run_ctx.make ~pool () in
      Alcotest.(check int) "one job" 1 (Run_ctx.jobs ctx);
      Alcotest.(check (list int)) "map well-defined" [ 1; 4; 9 ]
        (Run_ctx.map ctx ~f:(fun x -> x * x) [ 1; 2; 3 ]);
      Alcotest.(check (list int)) "empty map" [] (Run_ctx.map ctx ~f:(fun x -> x) []))

(* Run_ctx.map must preserve order both serial and pooled. *)
let test_run_ctx_map () =
  let xs = List.init 10 Fun.id in
  let serial = Run_ctx.map Run_ctx.default ~f:(fun x -> x + 1) xs in
  let pooled =
    Pool.with_pool ~size:3 (fun pool ->
        Run_ctx.map (Run_ctx.make ~pool ()) ~f:(fun x -> x + 1) xs)
  in
  Alcotest.(check (list int)) "serial" (List.map succ xs) serial;
  Alcotest.(check (list int)) "pooled equals serial" serial pooled;
  Alcotest.(check int) "jobs serial" 1 (Run_ctx.jobs Run_ctx.default)

let () =
  Alcotest.run "ninja_engine"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arith" `Quick test_time_arith;
          Alcotest.test_case "pp" `Quick test_time_pp;
          Alcotest.test_case "invalid" `Quick test_time_invalid;
        ] );
      ( "prng",
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic
        :: Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity
        :: Alcotest.test_case "split independence" `Quick test_prng_split_independent
        :: Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean
        :: Qsuite.tests [ prng_range_prop; prng_shuffle_prop ] );
      ( "pheap",
        Alcotest.test_case "fifo at same key" `Quick test_pheap_fifo_at_same_key
        :: Alcotest.test_case "pop empty" `Quick test_pheap_empty_pop
        :: Qsuite.tests [ pheap_sorted_prop; pheap_random_ops_prop ] );
      ( "sim",
        [
          Alcotest.test_case "sleep ordering" `Quick test_sim_sleep_ordering;
          Alcotest.test_case "fifo same instant" `Quick test_sim_fifo_same_instant;
          Alcotest.test_case "nested spawn clock" `Quick test_sim_nested_spawn_and_clock;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run_until resumable" `Quick test_sim_run_until;
          Alcotest.test_case "deadlock detection" `Quick test_sim_deadlock_detection;
          Alcotest.test_case "deadlock names sorted" `Quick test_sim_deadlock_names_sorted;
          Alcotest.test_case "schedule in past" `Quick test_sim_schedule_past_rejected;
          Alcotest.test_case "exception propagates" `Quick test_sim_exception_propagates;
          Alcotest.test_case "deterministic replay" `Quick test_sim_determinism;
          Alcotest.test_case "cancel same instant" `Quick test_sim_cancel_same_instant;
          Alcotest.test_case "cancel fired or cancelled" `Quick test_sim_cancel_fired_or_cancelled;
          Alcotest.test_case "cancelled timer keeps clock" `Quick
            test_sim_cancelled_timer_keeps_clock;
          Alcotest.test_case "run_until below now" `Quick test_sim_run_until_below_now;
          Alcotest.test_case "pending per cancel" `Quick test_sim_pending_per_cancel;
        ]
        @ Qsuite.tests [ sim_cancel_order_prop; sim_matches_oracle_prop ] );
      ( "ivar",
        [
          Alcotest.test_case "fill then read" `Quick test_ivar_fill_then_read;
          Alcotest.test_case "read blocks" `Quick test_ivar_read_blocks;
          Alcotest.test_case "readers fifo" `Quick test_ivar_multiple_readers_fifo;
          Alcotest.test_case "double fill" `Quick test_ivar_double_fill;
        ] );
      ( "channel",
        [
          Alcotest.test_case "fifo" `Quick test_channel_fifo;
          Alcotest.test_case "blocking recv" `Quick test_channel_blocking_recv;
          Alcotest.test_case "try_recv" `Quick test_channel_try_recv;
        ] );
      ( "semaphore",
        [
          Alcotest.test_case "mutex" `Quick test_semaphore_mutex;
          Alcotest.test_case "counting" `Quick test_semaphore_counting;
          Alcotest.test_case "fifo handoff" `Quick test_semaphore_fifo_handoff;
        ] );
      ( "ps_resource",
        Alcotest.test_case "single exact" `Quick test_ps_single_task_exact
        :: Alcotest.test_case "overcommit" `Quick test_ps_overcommit_halves_rate
        :: Alcotest.test_case "waterfill mixed" `Quick test_ps_waterfill_mixed_demands
        :: Alcotest.test_case "dynamic join" `Quick test_ps_dynamic_join
        :: Alcotest.test_case "cancel" `Quick test_ps_cancel
        :: Alcotest.test_case "zero work" `Quick test_ps_zero_work
        :: Alcotest.test_case "rerated 10k times, one timer" `Quick test_ps_rerate_one_timer
        :: Qsuite.tests [ ps_work_conservation_prop ] );
      ( "rated",
        Qsuite.tests [ rated_conservation_prop; rated_cancel_conservation_prop; rated_matches_oracle_prop ]
        @ [ Alcotest.test_case "tiny work done in add" `Quick test_rated_tiny_work_done_in_add ] );
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_pool_map_order;
          Alcotest.test_case "size one serial" `Quick test_pool_size_one_serial;
          Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
          Alcotest.test_case "nested map" `Quick test_pool_nested_map;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown_rejects;
          Alcotest.test_case "concurrent sims (DLS)" `Quick test_pool_concurrent_sims;
          Alcotest.test_case "map on empty list" `Quick test_pool_map_empty;
          Alcotest.test_case "zero size clamped" `Quick test_pool_zero_size_clamped;
          Alcotest.test_case "run_ctx zero-size pool" `Quick test_run_ctx_zero_size_pool;
          Alcotest.test_case "run_ctx map" `Quick test_run_ctx_map;
        ] );
    ]
