(* Tests for the max–min fair fabric. Expected values are computed by hand
   from the progressive-filling definition. *)

open Ninja_engine
open Ninja_flownet

let sec_f = Time.to_sec_f

let check_time = Alcotest.(check (float 1e-6))

let check_rate = Alcotest.(check (float 1e-6))

let test_single_flow_bottleneck () =
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let l1 = Fabric.add_link fab ~name:"tx" ~capacity:10.0 in
  let l2 = Fabric.add_link fab ~name:"rx" ~capacity:4.0 in
  let t_done = ref 0.0 in
  Sim.spawn sim (fun () ->
      Fabric.transfer fab ~route:[ l1; l2 ] ~bytes:40.0;
      t_done := sec_f (Sim.now sim));
  Sim.run sim;
  check_time "40 B over min(10,4) B/s" 10.0 !t_done

let test_two_flows_share_fairly () =
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let l = Fabric.add_link fab ~name:"l" ~capacity:10.0 in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Sim.spawn sim (fun () ->
      Fabric.transfer fab ~route:[ l ] ~bytes:50.0;
      t1 := sec_f (Sim.now sim));
  Sim.spawn sim (fun () ->
      Fabric.transfer fab ~route:[ l ] ~bytes:100.0;
      t2 := sec_f (Sim.now sim));
  Sim.run sim;
  (* Share 5+5 until f1 ends (t=10, f2 has 50 left), then f2 alone at 10:
     ends at 15. *)
  check_time "short flow" 10.0 !t1;
  check_time "long flow" 15.0 !t2

let test_max_min_classic () =
  (* f1 over [L1] and f2 over [L1; L2]; L1=10, L2=4. Max–min: f2 is
     bottlenecked at L2 (rate 4), f1 takes the residual 6. *)
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let l1 = Fabric.add_link fab ~name:"L1" ~capacity:10.0 in
  let l2 = Fabric.add_link fab ~name:"L2" ~capacity:4.0 in
  Sim.spawn sim (fun () ->
      let f1 = Fabric.start fab ~route:[ l1 ] ~bytes:1000.0 in
      let f2 = Fabric.start fab ~route:[ l1; l2 ] ~bytes:1000.0 in
      Sim.sleep (Time.sec 1);
      check_rate "f2 at L2 bottleneck" 4.0 (Fabric.rate f2);
      check_rate "f1 gets residual" 6.0 (Fabric.rate f1);
      check_rate "L1 fully used" 10.0 (Fabric.link_utilization fab l1);
      Fabric.cancel fab f1;
      Fabric.cancel fab f2);
  Sim.run sim

let test_dynamic_join_leave () =
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let l = Fabric.add_link fab ~name:"l" ~capacity:8.0 in
  let t1 = ref 0.0 in
  Sim.spawn sim (fun () ->
      Fabric.transfer fab ~route:[ l ] ~bytes:40.0;
      t1 := sec_f (Sim.now sim));
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 2);
      Fabric.transfer fab ~route:[ l ] ~bytes:16.0);
  Sim.run sim;
  (* f1: 2 s alone at 8 (16 done), then shares at 4. f2 needs 4 s sharing
     (ends t=6), f1 has 24-16=8 left at t=6 -> wait: from t=2 both at 4;
     f1 does 16 more by t=6 (32 total), f2 done. f1 has 8 left, alone at 8,
     ends t=7. *)
  check_time "join/leave rates" 7.0 !t1

let test_cancel_releases_bandwidth () =
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let l = Fabric.add_link fab ~name:"l" ~capacity:10.0 in
  let t2 = ref 0.0 in
  Sim.spawn sim (fun () ->
      let f1 = Fabric.start fab ~route:[ l ] ~bytes:1000.0 in
      Sim.sleep (Time.sec 2);
      Fabric.cancel fab f1);
  Sim.spawn sim (fun () ->
      Fabric.transfer fab ~route:[ l ] ~bytes:40.0;
      t2 := sec_f (Sim.now sim));
  Sim.run sim;
  (* f2: 2 s at 5 (10 done), then alone at 10 -> 3 s more... 30/10 = 3;
     ends at 5. *)
  check_time "bandwidth reclaimed" 5.0 !t2

let test_zero_byte_flow () =
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let l = Fabric.add_link fab ~name:"l" ~capacity:1.0 in
  let ok = ref false in
  Sim.spawn sim (fun () ->
      Fabric.transfer fab ~route:[ l ] ~bytes:0.0;
      ok := true);
  Sim.run sim;
  Alcotest.(check bool) "completes" true !ok

let test_route_validation () =
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let l = Fabric.add_link fab ~name:"l" ~capacity:1.0 in
  Alcotest.check_raises "empty route" (Invalid_argument "Fabric: empty route") (fun () ->
      ignore (Fabric.start fab ~route:[] ~bytes:1.0));
  Alcotest.check_raises "duplicate link" (Invalid_argument "Fabric: route contains duplicate links")
    (fun () -> ignore (Fabric.start fab ~route:[ l; l ] ~bytes:1.0));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Fabric.add_link: capacity must be positive and finite") (fun () ->
      ignore (Fabric.add_link fab ~name:"bad" ~capacity:0.0))

(* A link can be retired only once no flow crosses it; afterwards [links]
   omits it, no flow may use it, and ids keep counting up. *)
let test_remove_link () =
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let shared = Fabric.add_link fab ~name:"shared" ~capacity:1.0 in
  let hop = Fabric.add_link fab ~name:"hop" ~capacity:1.0 in
  let names () = List.map Fabric.link_name (Fabric.links fab) in
  Sim.spawn sim (fun () ->
      let fl = Fabric.start fab ~route:[ hop; shared ] ~bytes:2.0 in
      Alcotest.check_raises "busy link"
        (Invalid_argument "Fabric.remove_link: a flow still crosses hop") (fun () ->
          Fabric.remove_link fab hop);
      Fabric.await fl;
      Fabric.remove_link fab hop;
      Fabric.remove_link fab hop);
  Sim.run sim;
  Alcotest.(check (list string)) "live links" [ "shared" ] (names ());
  Alcotest.check_raises "removed link in a route"
    (Invalid_argument "Fabric: route crosses a removed link") (fun () ->
      ignore (Fabric.start fab ~route:[ hop ] ~bytes:1.0));
  let next = Fabric.add_link fab ~name:"next" ~capacity:1.0 in
  Alcotest.(check int) "ids not reused" 2 (Fabric.link_id next);
  Alcotest.(check (list string)) "creation order" [ "shared"; "next" ] (names ())

(* A retired link leaves the fabric at once: after a transfer crosses a
   private hop and the hop is removed, nothing the fabric keeps holds it,
   so a weak pointer to it empties at the next major collection. *)
let test_removed_link_collected () =
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let shared = Fabric.add_link fab ~name:"shared" ~capacity:1.0 in
  let hop = Weak.create 1 in
  let retire () =
    let l = Fabric.add_link fab ~name:"hop" ~capacity:1.0 in
    Weak.set hop 0 (Some l);
    Sim.spawn sim (fun () ->
        Fabric.transfer fab ~route:[ l; shared ] ~bytes:1.0;
        Fabric.remove_link fab l);
    Sim.run sim
  in
  retire ();
  Gc.full_major ();
  Alcotest.(check bool) "the retired hop is collected" false (Weak.check hop 0);
  Alcotest.(check (list string)) "live links" [ "shared" ]
    (List.map Fabric.link_name (Fabric.links fab))

(* Words allocated per one-flow transfer over a fixed two-link route,
   start, re-solves and completion included, so that a change that brings
   back lists per re-solve shows here. The bound is about 1.5 times what
   the dev profile measures (OCaml 5.1: 75 words). *)
let test_transfer_budget () =
  let n = 10_000 in
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let route = [ Fabric.add_link fab ~name:"tx" ~capacity:10.0; Fabric.add_link fab ~name:"rx" ~capacity:4.0 ] in
  Sim.spawn sim (fun () ->
      for _ = 1 to n do
        Fabric.transfer fab ~route ~bytes:1.0
      done);
  Gc.minor ();
  let before = Gc.minor_words () in
  Sim.run sim;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  if words > 112.0 then Alcotest.failf "one-flow transfer: %.1f words, bound 112" words

(* The fabric re-solves once per instant, at its flush, so every read
   made in between must run the solve first. Within one event: start a
   flow and read before yielding, start a second one and read again; at
   the instant the first completes, retire its private hop (the link
   registries are the solver's) and read the survivor. Every value is
   what a solve at each change gives. *)
let test_reads_before_flush () =
  let sim = Sim.create () in
  let fab = Fabric.create sim in
  let shared = Fabric.add_link fab ~name:"shared" ~capacity:10.0 in
  let hop = Fabric.add_link fab ~name:"hop" ~capacity:10.0 in
  Sim.spawn sim (fun () ->
      let f1 = Fabric.start fab ~route:[ hop; shared ] ~bytes:5.0 in
      check_rate "shared carries f1" 10.0 (Fabric.link_utilization fab shared);
      check_rate "f1 alone" 10.0 (Fabric.rate f1);
      let f2 = Fabric.start fab ~route:[ shared ] ~bytes:100.0 in
      check_rate "hop carries half" 5.0 (Fabric.link_utilization fab hop);
      check_rate "f2 shares" 5.0 (Fabric.rate f2);
      check_rate "shared stays full" 10.0 (Fabric.link_utilization fab shared);
      Fabric.await f1;
      check_time "f1 done at 1 s" 1.0 (sec_f (Sim.now sim));
      Fabric.remove_link fab hop;
      check_rate "f2 takes the link" 10.0 (Fabric.rate f2);
      check_rate "shared carries f2" 10.0 (Fabric.link_utilization fab shared);
      Fabric.cancel fab f2);
  Sim.run sim;
  Alcotest.(check (list string)) "live links" [ "shared" ]
    (List.map Fabric.link_name (Fabric.links fab))

(* Property: on a single shared link, n equal flows complete simultaneously
   at n*bytes/capacity — work conservation under fair sharing. *)
let conservation_prop =
  QCheck.Test.make ~name:"fair sharing conserves work" ~count:100
    QCheck.(pair (int_range 1 10) (int_range 1 20))
    (fun (n, cap) ->
      let sim = Sim.create () in
      let fab = Fabric.create sim in
      let l = Fabric.add_link fab ~name:"l" ~capacity:(float_of_int cap) in
      for _ = 1 to n do
        Sim.spawn sim (fun () -> Fabric.transfer fab ~route:[ l ] ~bytes:30.0)
      done;
      Sim.run sim;
      let expected = float_of_int n *. 30.0 /. float_of_int cap in
      Float.abs (Time.to_sec_f (Sim.now sim) -. expected) < 1e-6)

(* Property: link utilisation never exceeds capacity even with random
   multi-hop routes over a small topology. *)
let capacity_respected_prop =
  QCheck.Test.make ~name:"rates never exceed link capacity" ~count:100
    QCheck.(small_list (pair (int_bound 2) (int_bound 2)))
    (fun pairs ->
      let sim = Sim.create () in
      let fab = Fabric.create sim in
      let links =
        Array.init 3 (fun i ->
            Fabric.add_link fab ~name:(Printf.sprintf "l%d" i) ~capacity:(float_of_int (i + 1)))
      in
      let ok = ref true in
      List.iter
        (fun (a, b) ->
          let route = if a = b then [ links.(a) ] else [ links.(a); links.(b) ] in
          Sim.spawn sim (fun () -> Fabric.transfer fab ~route ~bytes:10.0))
        pairs;
      Sim.spawn sim (fun () ->
          Sim.sleep (Time.ms 100);
          Array.iter
            (fun l ->
              if Fabric.link_utilization fab l > Fabric.link_capacity l +. 1e-6 then ok := false)
            links);
      Sim.run sim;
      !ok)

(* Property: however flow starts and cancels interleave, the summed rates
   of the live flows crossing a link never exceed its capacity. Each op is
   ((link a, link b), start slot, optional cancel slot); a monitor fiber
   samples between slots. *)
let start_cancel_capacity_prop =
  QCheck.Test.make ~name:"capacity respected under start/cancel churn" ~count:100
    QCheck.(
      small_list
        (triple (pair (int_bound 2) (int_bound 2)) (int_bound 5) (option (int_bound 5))))
    (fun ops ->
      let sim = Sim.create () in
      let fab = Fabric.create sim in
      let links =
        Array.init 3 (fun i ->
            Fabric.add_link fab ~name:(Printf.sprintf "l%d" i)
              ~capacity:(float_of_int (i + 1)))
      in
      let live = ref [] in
      let remove f = live := List.filter (fun (g, _) -> g != f) !live in
      List.iter
        (fun ((a, b), start_slot, cancel_slot) ->
          Sim.spawn sim (fun () ->
              Sim.sleep (Time.ms (start_slot * 10));
              let route = if a = b then [ links.(a) ] else [ links.(a); links.(b) ] in
              let f = Fabric.start fab ~route ~bytes:50.0 in
              live := (f, route) :: !live;
              (match cancel_slot with
              | Some slot ->
                Sim.sleep (Time.ms ((slot * 10) + 5));
                if not (Fabric.is_done f) then Fabric.cancel fab f
              | None -> Fabric.await f);
              remove f))
        ops;
      let ok = ref true in
      Sim.spawn sim (fun () ->
          for _ = 1 to 20 do
            Sim.sleep (Time.ms 7);
            Array.iter
              (fun l ->
                let used =
                  List.fold_left
                    (fun acc (f, route) ->
                      if (not (Fabric.is_done f)) && List.memq l route then
                        acc +. Fabric.rate f
                      else acc)
                    0.0 !live
                in
                if used > Fabric.link_capacity l +. 1e-6 then ok := false)
              links
          done);
      Sim.run sim;
      !ok)

(* Property: n identical flows sharing one link each get exactly
   capacity/n — max–min fairness degenerates to equal split. *)
let equal_share_prop =
  QCheck.Test.make ~name:"equal flows get equal rates" ~count:100
    QCheck.(pair (int_range 2 8) (int_range 1 20))
    (fun (n, cap) ->
      let sim = Sim.create () in
      let fab = Fabric.create sim in
      let l = Fabric.add_link fab ~name:"l" ~capacity:(float_of_int cap) in
      let ok = ref true in
      Sim.spawn sim (fun () ->
          let flows = List.init n (fun _ -> Fabric.start fab ~route:[ l ] ~bytes:1e6) in
          Sim.sleep (Time.ms 10);
          let expected = float_of_int cap /. float_of_int n in
          List.iter
            (fun f -> if Float.abs (Fabric.rate f -. expected) > 1e-6 then ok := false)
            flows;
          List.iter (fun f -> Fabric.cancel fab f) flows);
      Sim.run sim;
      !ok)

let () =
  Alcotest.run "ninja_flownet"
    [
      ( "fabric",
        Alcotest.test_case "single flow bottleneck" `Quick test_single_flow_bottleneck
        :: Alcotest.test_case "fair share" `Quick test_two_flows_share_fairly
        :: Alcotest.test_case "max-min classic" `Quick test_max_min_classic
        :: Alcotest.test_case "dynamic join/leave" `Quick test_dynamic_join_leave
        :: Alcotest.test_case "cancel releases bw" `Quick test_cancel_releases_bandwidth
        :: Alcotest.test_case "zero bytes" `Quick test_zero_byte_flow
        :: Alcotest.test_case "route validation" `Quick test_route_validation
        :: Alcotest.test_case "remove link" `Quick test_remove_link
        :: Alcotest.test_case "a removed link is collected" `Quick test_removed_link_collected
        :: Alcotest.test_case "reads before the flush" `Quick test_reads_before_flush
        :: Qsuite.tests
             [
               conservation_prop;
               capacity_respected_prop;
               start_cancel_capacity_prop;
               equal_share_prop;
             ]
        @ [ Alcotest.test_case "allocation budget: one-flow transfer" `Quick test_transfer_budget ]
      );
    ]
