(* Tests for the VMM layer: guest memory tracking, VM lifecycle, hotplug,
   precopy migration, QMP, snapshots. *)

open Ninja_engine
open Ninja_hardware
open Ninja_vmm

let check_float = Alcotest.(check (float 1e-6))

let check_near msg tolerance expected actual =
  if Float.abs (expected -. actual) > tolerance then
    Alcotest.failf "%s: expected %g +/- %g, got %g" msg expected tolerance actual

let small_cluster () =
  let sim = Sim.create () in
  (sim, Cluster.create sim ~spec:Spec.small ())

let mk_vm ?(mem_gb = 20.0) cluster host =
  Vm.create cluster ~name:"vm0" ~host ~vcpus:8 ~mem_bytes:(Units.gb mem_gb) ()

(* ------------------------------------------------------------------ *)
(* Memory *)

let test_memory_counters () =
  let m = Memory.create ~total_bytes:(Units.gb 1.0) in
  check_float "all zero initially" 0.0 (Memory.nonzero_bytes m);
  check_float "zero = total" (Memory.total_bytes m) (Memory.zero_bytes m);
  let r = Memory.alloc m ~bytes:(Units.mb 100.0) in
  check_float "alloc does not touch" 0.0 (Memory.nonzero_bytes m);
  Memory.write m r ~offset:0.0 ~bytes:(Units.mb 10.0);
  check_near "10 MiB nonzero" 8192.0 (Units.mb 10.0) (Memory.nonzero_bytes m);
  check_near "10 MiB dirty" 8192.0 (Units.mb 10.0) (Memory.dirty_bytes m);
  Memory.clear_dirty m;
  check_float "dirty cleared" 0.0 (Memory.dirty_bytes m);
  check_near "nonzero survives clear" 8192.0 (Units.mb 10.0) (Memory.nonzero_bytes m);
  (* Rewriting the same pages re-dirties but does not grow nonzero. *)
  Memory.write m r ~offset:0.0 ~bytes:(Units.mb 10.0);
  check_near "re-dirty" 8192.0 (Units.mb 10.0) (Memory.dirty_bytes m);
  check_near "nonzero unchanged" 8192.0 (Units.mb 10.0) (Memory.nonzero_bytes m)

let test_memory_free_and_reuse () =
  let m = Memory.create ~total_bytes:(Units.mb 1.0) in
  let r = Memory.alloc m ~bytes:(Units.mb 1.0) in
  Memory.write_all m r;
  Memory.free m r;
  check_float "freed pages are zero" 0.0 (Memory.nonzero_bytes m);
  (* The space is reusable. *)
  let r2 = Memory.alloc m ~bytes:(Units.mb 1.0) in
  ignore (Memory.alloc m ~bytes:0.0);
  Memory.write_all m r2;
  Alcotest.check_raises "write to freed region" (Invalid_argument "Memory.write: region was freed")
    (fun () -> Memory.write m r ~offset:0.0 ~bytes:1.0)

let test_memory_out_of_memory () =
  let m = Memory.create ~total_bytes:(Units.mb 1.0) in
  Alcotest.check_raises "oom" (Invalid_argument "Memory.alloc: out of guest memory") (fun () ->
      ignore (Memory.alloc m ~bytes:(Units.mb 2.0)))

(* Model-based check: the bitmap implementation must agree with a naive
   page-set reference over arbitrary write/clear sequences. *)
let memory_model_prop =
  let module IS = Set.Make (Int) in
  QCheck.Test.make ~name:"memory agrees with a page-set model" ~count:200
    QCheck.(small_list (pair bool (pair (int_bound 1000) (int_bound 300))))
    (fun ops ->
      let total = Units.mb 4.0 in
      let m = Memory.create ~total_bytes:total in
      let r = Memory.alloc m ~bytes:total in
      let ps = Memory.page_size in
      let pages = int_of_float total / ps in
      let nonzero = ref IS.empty and dirty = ref IS.empty in
      let consistent () =
        Memory.nonzero_bytes m = float_of_int (IS.cardinal !nonzero * ps)
        && Memory.dirty_bytes m = float_of_int (IS.cardinal !dirty * ps)
      in
      List.for_all
        (fun (clear, (off_kb, len_kb)) ->
          if clear then begin
            Memory.clear_dirty m;
            dirty := IS.empty
          end
          else begin
            let off = off_kb * 1024 and len = len_kb * 1024 in
            Memory.write m r ~offset:(float_of_int off) ~bytes:(float_of_int len);
            if len > 0 then
              for p = off / ps to min (pages - 1) ((off + len - 1) / ps) do
                nonzero := IS.add p !nonzero;
                dirty := IS.add p !dirty
              done
          end;
          consistent ())
        ops)

(* Differential check of the postcopy dual-residency tracking: 1000
   random alloc / write / clear_dirty / begin / end / pull operations
   against a naive set-based oracle. Guest memory is allocated region by
   region, so the bitmaps grow with the allocated prefix, also while a
   postcopy drain is active, and pages past it are queried too. The oracle claims remote pages lowest-index-
   first on pulls, marks post-switchover writes resident, and drops the
   resident set at end_postcopy — after every operation the bitmap
   implementation must agree page-for-page on nonzero, dirty and
   resident, and on every derived byte counter. Pulls only run while
   postcopy is active, as in [Migration.postcopy]: outside that window
   the pull cursor's drained-word skipping is not defined. *)
let memory_residency_differential_prop =
  let module IS = Set.Make (Int) in
  QCheck.Test.make ~name:"postcopy residency agrees with a set-based oracle" ~count:50
    QCheck.int (fun salt ->
      let prng = Prng.create ~seed:(Int64.of_int (8000 + salt)) in
      let total = Units.mb 8.0 in
      let m = Memory.create ~total_bytes:total in
      let ps = Memory.page_size in
      let pages = int_of_float total / ps in
      (* (region, first page, pages), in allocation order. *)
      let regions = ref [||] and allocated = ref 0 in
      let alloc () =
        let len = min (pages - !allocated) (1 + Prng.int prng 24) in
        if len > 0 then begin
          let r = Memory.alloc m ~bytes:(float_of_int (len * ps)) in
          regions := Array.append !regions [| (r, !allocated, len) |];
          allocated := !allocated + len
        end
      in
      alloc ();
      let nonzero = ref IS.empty and dirty = ref IS.empty and resident = ref IS.empty in
      let active = ref false in
      let check_page_for_page op =
        for p = 0 to pages - 1 do
          if Memory.page_nonzero m p <> IS.mem p !nonzero then
            QCheck.Test.fail_reportf "%s: page %d nonzero mismatch" op p;
          if Memory.page_dirty m p <> IS.mem p !dirty then
            QCheck.Test.fail_reportf "%s: page %d dirty mismatch" op p;
          if Memory.page_resident m p <> IS.mem p !resident then
            QCheck.Test.fail_reportf "%s: page %d resident mismatch" op p
        done;
        let bytes s = float_of_int (IS.cardinal !s * ps) in
        if Memory.nonzero_bytes m <> bytes nonzero then
          QCheck.Test.fail_reportf "%s: nonzero_bytes mismatch" op;
        if Memory.dirty_bytes m <> bytes dirty then
          QCheck.Test.fail_reportf "%s: dirty_bytes mismatch" op;
        if Memory.resident_bytes m <> bytes resident then
          QCheck.Test.fail_reportf "%s: resident_bytes mismatch" op;
        if Memory.remote_bytes m <> bytes nonzero -. bytes resident then
          QCheck.Test.fail_reportf "%s: remote_bytes mismatch" op;
        if Memory.postcopy_active m <> !active then
          QCheck.Test.fail_reportf "%s: postcopy_active mismatch" op
      in
      for _ = 1 to 1000 do
        let op =
          match Prng.int prng 11 with
          | 0 | 1 | 2 | 3 ->
            (* Guest write: dirties and fills pages; materialises them at
               the destination when the drain is in progress. *)
            let r, first, region_pages = !regions.(Prng.int prng (Array.length !regions)) in
            let off = Prng.int prng (region_pages * ps) in
            let len = Prng.int prng (ps * 8) in
            Memory.write m r ~offset:(float_of_int off) ~bytes:(float_of_int len);
            if len > 0 then
              for p = off / ps to min (region_pages - 1) ((off + len - 1) / ps) do
                nonzero := IS.add (first + p) !nonzero;
                dirty := IS.add (first + p) !dirty;
                if !active then resident := IS.add (first + p) !resident
              done;
            "write"
          | 10 ->
            alloc ();
            "alloc"
          | 4 ->
            Memory.clear_dirty m;
            dirty := IS.empty;
            "clear_dirty"
          | 5 ->
            Memory.begin_postcopy m;
            resident := IS.empty;
            active := true;
            "begin_postcopy"
          | 6 ->
            Memory.end_postcopy m;
            resident := IS.empty;
            active := false;
            "end_postcopy"
          | _ ->
            if not !active then begin
              Memory.begin_postcopy m;
              resident := IS.empty;
              active := true;
              "begin_postcopy"
            end
            else begin
              let k = 1 + Prng.int prng (pages / 2) in
              let remote = IS.diff !nonzero !resident in
              (* Oracle: the k lowest remote pages become resident. *)
              let expect = min k (IS.cardinal remote) in
              let claimed = ref 0 in
              IS.iter
                (fun p ->
                  if !claimed < expect then begin
                    resident := IS.add p !resident;
                    incr claimed
                  end)
                remote;
              let got = Memory.pull_pages m ~max_pages:k in
              if got <> expect then
                QCheck.Test.fail_reportf "pull_pages returned %d, oracle %d" got expect;
              "pull_pages"
            end
        in
        check_page_for_page op
      done;
      true)

let memory_invariants_prop =
  QCheck.Test.make ~name:"dirty <= nonzero <= total under random writes" ~count:200
    QCheck.(small_list (pair (int_bound 900) (int_bound 200)))
    (fun writes ->
      let m = Memory.create ~total_bytes:(Units.mb 1.0) in
      let r = Memory.alloc m ~bytes:(Units.mb 1.0) in
      List.iter
        (fun (off_kb, len_kb) ->
          Memory.write m r ~offset:(float_of_int off_kb *. 1024.0)
            ~bytes:(float_of_int len_kb *. 1024.0))
        writes;
      Memory.dirty_bytes m <= Memory.nonzero_bytes m
      && Memory.nonzero_bytes m <= Memory.total_bytes m)

(* ------------------------------------------------------------------ *)
(* Vm *)

let test_vm_boot_state () =
  let _, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  Alcotest.(check bool) "running" true (Vm.state vm = Vm.Running);
  Alcotest.(check bool) "virtio attached at boot" true (Vm.find_device vm ~tag:"virtio0" <> None);
  Alcotest.(check bool) "no bypass yet" false (Vm.has_bypass_device vm);
  check_near "os resident ~2.3GB" 1e7 2.3e9 (Memory.nonzero_bytes (Vm.memory vm));
  check_float "boot image is clean" 0.0 (Memory.dirty_bytes (Vm.memory vm))

let test_vm_compute_timing () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  let t = ref 0.0 in
  Sim.spawn sim (fun () ->
      Vm.compute vm ~core_seconds:5.0;
      t := Time.to_sec_f (Sim.now sim));
  Sim.run sim;
  check_float "5 core-sec on idle host" 5.0 !t

let test_vm_pause_gates_compute () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  let t = ref 0.0 in
  Sim.spawn sim (fun () ->
      Vm.compute vm ~chunk:0.5 ~core_seconds:4.0;
      t := Time.to_sec_f (Sim.now sim));
  Sim.spawn sim (fun () ->
      Sim.sleep (Time.sec 1);
      Vm.pause vm;
      Sim.sleep (Time.sec 10);
      Vm.resume vm);
  Sim.run sim;
  (* 4 s of work with a 10 s pause in the middle: 14 s, +-1 chunk. *)
  check_near "paused VM makes no progress" 0.51 14.0 !t

let test_vm_guest_write_dirty_and_timing () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  let t = ref 0.0 in
  Sim.spawn sim (fun () ->
      let r = Memory.alloc (Vm.memory vm) ~bytes:(Units.gb 2.0) in
      Vm.guest_write vm r ~offset:0.0 ~bytes:(Units.gb 2.0) ~bandwidth:2.0e9;
      t := Time.to_sec_f (Sim.now sim));
  Sim.run sim;
  check_near "2 GiB at 2 GB/s" 1e-3 (Units.gb 2.0 /. 2.0e9) !t;
  check_near "2 GiB dirty" 1e5 (Units.gb 2.0) (Memory.dirty_bytes (Vm.memory vm))

let test_vm_overcommit_two_vms () =
  (* Two 8-vCPU VMs each running 8 single-core tasks on one 8-core host:
     everything at half speed (Fig. 8's consolidation effect). *)
  let sim, cluster = small_cluster () in
  let host = Cluster.find_node cluster "eth00" in
  let vm1 = Vm.create cluster ~name:"vm1" ~host ~vcpus:8 ~mem_bytes:(Units.gb 20.0) () in
  let vm2 = Vm.create cluster ~name:"vm2" ~host ~vcpus:8 ~mem_bytes:(Units.gb 20.0) () in
  let finish = ref [] in
  List.iter
    (fun vm ->
      for _ = 1 to 8 do
        Sim.spawn sim (fun () ->
            Vm.compute vm ~core_seconds:3.0;
            finish := Time.to_sec_f (Sim.now sim) :: !finish)
      done)
    [ vm1; vm2 ];
  Sim.run sim;
  List.iter (fun f -> check_float "halved rate" 6.0 f) !finish

let test_vm_too_big_for_host () =
  let _, cluster = small_cluster () in
  let host = Cluster.find_node cluster "ib00" in
  Alcotest.check_raises "oversized VM" (Invalid_argument "Vm.create: VM larger than host memory")
    (fun () -> ignore (Vm.create cluster ~name:"big" ~host ~vcpus:8 ~mem_bytes:(Units.gb 64.0) ()))

(* ------------------------------------------------------------------ *)
(* Hotplug *)

let test_hotplug_add_del_timing () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  Sim.spawn sim (fun () ->
      let hca = Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca in
      let t_add = Hotplug.device_add vm ~device:hca () in
      check_float "attach_ib" (Time.to_sec_f Calibration.attach_ib) (Time.to_sec_f t_add);
      Alcotest.(check bool) "bypass attached" true (Vm.has_bypass_device vm);
      let t_del = Hotplug.device_del vm ~tag:"vf0" () in
      check_float "detach_ib" (Time.to_sec_f Calibration.detach_ib) (Time.to_sec_f t_del);
      Alcotest.(check bool) "bypass gone" false (Vm.has_bypass_device vm));
  Sim.run sim

let test_hotplug_noise_factor () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  Sim.spawn sim (fun () ->
      let hca = Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca in
      let t_add = Hotplug.device_add vm ~device:hca ~noise:3.0 () in
      check_near "3x under migration noise" 1e-6
        (3.0 *. Time.to_sec_f Calibration.attach_ib)
        (Time.to_sec_f t_add));
  Sim.run sim

let test_hotplug_no_backing_port () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "eth00") in
  let raised = ref false in
  Sim.spawn sim (fun () ->
      let hca = Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca in
      match Hotplug.device_add vm ~device:hca () with
      | _ -> ()
      | exception Hotplug.No_backing_port _ -> raised := true);
  Sim.run sim;
  Alcotest.(check bool) "cannot passthrough missing hardware" true !raised

let test_hotplug_hooks_fire () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  let added = ref [] and removed = ref [] in
  Vm.on_device_added vm (fun d -> added := d.Device.tag :: !added);
  Vm.on_device_removed vm (fun d -> removed := d.Device.tag :: !removed);
  Sim.spawn sim (fun () ->
      let hca = Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca in
      ignore (Hotplug.device_add vm ~device:hca ());
      ignore (Hotplug.device_del vm ~tag:"vf0" ()));
  Sim.run sim;
  Alcotest.(check (list string)) "added hook" [ "vf0" ] !added;
  Alcotest.(check (list string)) "removed hook" [ "vf0" ] !removed

(* ------------------------------------------------------------------ *)
(* Migration *)

let test_migration_refuses_bypass () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  let refused = ref false in
  Sim.spawn sim (fun () ->
      ignore
        (Hotplug.device_add vm ~device:(Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca) ());
      (match Migration.migrate vm ~dst:(Cluster.find_node cluster "ib01") () with
      | _ -> ()
      | exception Migration.Bypass_device_attached _ -> refused := true);
      ignore (Hotplug.device_del vm ~tag:"vf0" ()));
  Sim.run sim;
  Alcotest.(check bool) "refused" true !refused

let test_migration_frozen_guest_duration () =
  (* A paused guest dirties nothing: one full walk, zero downtime payload.
     Expected duration = nonzero/transfer_rate + zero/scan_rate. *)
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  let dst = Cluster.find_node cluster "eth00" in
  let stats = ref None in
  Sim.spawn sim (fun () ->
      Vm.pause vm;
      stats := Some (Migration.migrate vm ~dst ()));
  Sim.run sim;
  let stats = Option.get !stats in
  let memory = Vm.memory vm in
  let expected =
    (Memory.nonzero_bytes memory /. Calibration.transfer_rate)
    +. (Memory.zero_bytes memory /. Calibration.zero_scan_rate)
  in
  check_near "frozen-guest walk" 0.05 expected (Time.to_sec_f stats.Migration.duration);
  check_float "no downtime payload" 0.0 (Time.to_sec_f stats.Migration.downtime);
  Alcotest.(check bool) "moved" true (Vm.host vm == dst);
  Alcotest.(check bool) "stays paused" true (Vm.state vm = Vm.Paused)

let test_migration_self () =
  let sim, cluster = small_cluster () in
  let host = Cluster.find_node cluster "ib00" in
  let vm = mk_vm cluster host in
  let ok = ref false in
  Sim.spawn sim (fun () ->
      Vm.pause vm;
      let stats = Migration.migrate vm ~dst:host () in
      ok := stats.Migration.transferred_bytes > 0.0 && Vm.host vm == host);
  Sim.run sim;
  Alcotest.(check bool) "self-migration works" true !ok

let test_migration_live_dirtier_costs_more () =
  (* A guest writing memory during migration forces extra precopy rounds. *)
  let run_with_writer writer =
    let sim, cluster = small_cluster () in
    let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
    let dst = Cluster.find_node cluster "eth00" in
    let result = ref None in
    Sim.spawn sim (fun () ->
        let region = Memory.alloc (Vm.memory vm) ~bytes:(Units.gb 2.0) in
        Vm.guest_write vm region ~offset:0.0 ~bytes:(Units.gb 2.0) ~bandwidth:3.0e9;
        if writer then
          Sim.spawn sim (fun () ->
              (* Keep rewriting the array while migration runs. *)
              for _ = 1 to 20 do
                Vm.guest_write vm region ~offset:0.0 ~bytes:(Units.gb 2.0) ~bandwidth:3.0e9
              done);
        Sim.sleep (Time.ms 10);
        result := Some (Migration.migrate vm ~dst ()));
    Sim.run_until sim (Time.minutes 30);
    Option.get !result
  in
  let idle = run_with_writer false in
  let busy = run_with_writer true in
  Alcotest.(check bool) "dirtying guest transfers more" true
    (busy.Migration.transferred_bytes > idle.Migration.transferred_bytes);
  Alcotest.(check bool) "extra rounds" true (busy.Migration.rounds >= idle.Migration.rounds);
  Alcotest.(check bool) "downtime bounded by target or max rounds" true
    Time.(busy.Migration.downtime <= Time.sec 8)

let test_migration_resumes_running_guest () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  Sim.spawn sim (fun () -> ignore (Migration.migrate vm ~dst:(Cluster.find_node cluster "eth01") ()));
  Sim.run sim;
  Alcotest.(check bool) "running after" true (Vm.state vm = Vm.Running)

let test_migration_postcopy_downtime_constant () =
  (* Postcopy downtime is the hot-set push, independent of footprint. *)
  let run size_gb =
    let sim, cluster = small_cluster () in
    let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
    let dst = Cluster.find_node cluster "eth00" in
    let stats = ref None in
    Sim.spawn sim (fun () ->
        let r = Memory.alloc (Vm.memory vm) ~bytes:(Units.gb size_gb) in
        Vm.guest_write vm r ~offset:0.0 ~bytes:(Units.gb size_gb) ~bandwidth:3.0e9;
        stats := Some (Migration.migrate vm ~dst ~mode:Migration.Postcopy ()));
    Sim.run sim;
    Option.get !stats
  in
  let s2 = run 2.0 and s16 = run 16.0 in
  check_near "same downtime" 0.05
    (Time.to_sec_f s2.Migration.downtime)
    (Time.to_sec_f s16.Migration.downtime);
  Alcotest.(check bool) "duration still scales with footprint" true
    Time.(s16.Migration.duration > s2.Migration.duration);
  Alcotest.(check bool) "each page moves once" true
    (s16.Migration.transferred_bytes < Units.gb 20.0)

let test_migration_postcopy_slowdown_lifted () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  let dst = Cluster.find_node cluster "eth00" in
  Sim.spawn sim (fun () ->
      let r = Memory.alloc (Vm.memory vm) ~bytes:(Units.gb 4.0) in
      Vm.guest_write vm r ~offset:0.0 ~bytes:(Units.gb 4.0) ~bandwidth:3.0e9;
      Sim.spawn sim (fun () ->
          Sim.sleep (Time.sec 2);
          (* Mid-pull: remote faults are active. *)
          Alcotest.(check (float 1e-9)) "slowdown during pull"
            Migration.postcopy_fault_slowdown (Vm.compute_slowdown vm));
      ignore (Migration.migrate vm ~dst ~mode:Migration.Postcopy ());
      Alcotest.(check (float 1e-9)) "slowdown lifted" 1.0 (Vm.compute_slowdown vm));
  Sim.run sim

let test_migration_rdma_faster () =
  let run transport =
    let sim, cluster = small_cluster () in
    let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
    let dst = Cluster.find_node cluster "ib01" in
    let d = ref Time.zero in
    Sim.spawn sim (fun () ->
        Vm.pause vm;
        d := (Migration.migrate vm ~dst ~transport ()).Migration.duration);
    Sim.run sim;
    Time.to_sec_f !d
  in
  Alcotest.(check bool) "rdma sender beats tcp" true
    (run Migration.Rdma < run Migration.Tcp)

(* ------------------------------------------------------------------ *)
(* Qmp *)

let test_qmp_roundtrip () =
  let sim, cluster = small_cluster () in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  Sim.spawn sim (fun () ->
      match Qmp.execute vm (Qmp.Device_del { tag = "nope"; noise = 1.0 }) with
      | Qmp.Error msg -> Alcotest.(check string) "error" "device not found: nope" msg
      | Qmp.Elapsed _ | Qmp.Migrated _ -> Alcotest.fail "expected an error");
  Sim.run sim

let test_qmp_command_text () =
  let _, cluster = small_cluster () in
  let dst = Cluster.find_node cluster "eth00" in
  let vf0 = Device.make ~tag:"vf0" ~pci_addr:"04:00.0" Device.Ib_hca in
  Alcotest.(check (list string))
    "monitor text"
    [ "device_del vf0"; "device_add vf0 04:00.0 ib"; "migrate eth00"; "migrate_postcopy eth00" ]
    (List.map Qmp.command_to_string
       [
         Qmp.Device_del { tag = "vf0"; noise = 1.0 };
         Qmp.Device_add { device = vf0; noise = 1.0 };
         Qmp.Migrate { dst; transport = Migration.Tcp; mode = Migration.Precopy };
         Qmp.Migrate { dst; transport = Migration.Tcp; mode = Migration.Postcopy };
       ])

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let test_snapshot_save_restore () =
  let sim, cluster = small_cluster () in
  let store = Snapshot.create_store cluster in
  let vm = mk_vm cluster (Cluster.find_node cluster "ib00") in
  let restored = ref None in
  Sim.spawn sim (fun () ->
      let r = Memory.alloc (Vm.memory vm) ~bytes:(Units.gb 1.0) in
      Vm.guest_write vm r ~offset:0.0 ~bytes:(Units.gb 1.0) ~bandwidth:3.0e9;
      let snap = Snapshot.save store vm ~name:"ckpt1" in
      Alcotest.(check bool) "vm still runs after save" true (Vm.state vm = Vm.Running);
      Alcotest.(check bool) "image covers os+array" true
        (Snapshot.image_bytes snap >= Units.gb 1.0);
      let vm2 = Snapshot.restore store snap ~host:(Cluster.find_node cluster "eth00") in
      restored := Some vm2);
  Sim.run sim;
  match !restored with
  | None -> Alcotest.fail "no restore"
  | Some vm2 ->
    Alcotest.(check bool) "restored paused" true (Vm.state vm2 = Vm.Paused);
    check_near "memory image preserved" 1e8
      (Memory.nonzero_bytes (Vm.memory vm))
      (Memory.nonzero_bytes (Vm.memory vm2));
    Alcotest.(check bool) "find by name" true (Snapshot.find store ~name:"ckpt1" <> None)

let () =
  Alcotest.run "ninja_vmm"
    [
      ( "memory",
        Alcotest.test_case "counters" `Quick test_memory_counters
        :: Alcotest.test_case "free and reuse" `Quick test_memory_free_and_reuse
        :: Alcotest.test_case "out of memory" `Quick test_memory_out_of_memory
        :: Qsuite.tests
             [
               memory_invariants_prop; memory_model_prop;
               memory_residency_differential_prop;
             ] );
      ( "vm",
        [
          Alcotest.test_case "boot state" `Quick test_vm_boot_state;
          Alcotest.test_case "compute timing" `Quick test_vm_compute_timing;
          Alcotest.test_case "pause gates compute" `Quick test_vm_pause_gates_compute;
          Alcotest.test_case "guest write" `Quick test_vm_guest_write_dirty_and_timing;
          Alcotest.test_case "overcommit" `Quick test_vm_overcommit_two_vms;
          Alcotest.test_case "too big for host" `Quick test_vm_too_big_for_host;
        ] );
      ( "hotplug",
        [
          Alcotest.test_case "add/del timing" `Quick test_hotplug_add_del_timing;
          Alcotest.test_case "noise factor" `Quick test_hotplug_noise_factor;
          Alcotest.test_case "no backing port" `Quick test_hotplug_no_backing_port;
          Alcotest.test_case "hooks fire" `Quick test_hotplug_hooks_fire;
        ] );
      ( "migration",
        [
          Alcotest.test_case "refuses bypass" `Quick test_migration_refuses_bypass;
          Alcotest.test_case "frozen guest duration" `Quick test_migration_frozen_guest_duration;
          Alcotest.test_case "self migration" `Quick test_migration_self;
          Alcotest.test_case "live dirtier costs more" `Quick test_migration_live_dirtier_costs_more;
          Alcotest.test_case "resumes running guest" `Quick test_migration_resumes_running_guest;
          Alcotest.test_case "postcopy constant downtime" `Quick
            test_migration_postcopy_downtime_constant;
          Alcotest.test_case "postcopy slowdown lifted" `Quick
            test_migration_postcopy_slowdown_lifted;
          Alcotest.test_case "rdma faster" `Quick test_migration_rdma_faster;
        ] );
      ( "qmp",
        [
          Alcotest.test_case "roundtrip" `Quick test_qmp_roundtrip;
          Alcotest.test_case "command text" `Quick test_qmp_command_text;
        ] );
      ("snapshot", [ Alcotest.test_case "save/restore" `Quick test_snapshot_save_restore ]);
    ]
