open Ninja_engine
open Ninja_flownet
open Ninja_hardware

type config = {
  period : float;
  retain : int;
  window : int;
  sample_rate : int;
  pkt_bytes : float;
  hot_threshold : float;
  warmup : float;
  snapshot_every : float;
}

let default_config =
  {
    period = 5.0;
    retain = 120;
    window = 24;
    sample_rate = 16;
    pkt_bytes = 1500.0;
    hot_threshold = 0.8;
    warmup = 60.0;
    snapshot_every = 0.0;
  }

let validate cfg =
  if cfg.period <= 0.0 || not (Float.is_finite cfg.period) then
    Error "period must be positive and finite"
  else if cfg.retain < 1 then Error "retain must be >= 1"
  else if cfg.window < 1 || cfg.window > cfg.retain then
    Error "window must be in [1, retain]"
  else if cfg.sample_rate < 1 then Error "sample-rate must be >= 1"
  else if not (cfg.pkt_bytes > 0.0 && Float.is_finite cfg.pkt_bytes) then
    Error "pkt-bytes must be positive and finite"
  else if not (cfg.hot_threshold > 0.0 && cfg.hot_threshold <= 1.0) then
    Error "hot-threshold must be in (0, 1]"
  else if not (cfg.warmup >= 0.0 && Float.is_finite cfg.warmup) then
    Error "warmup must be non-negative and finite"
  else if not (cfg.snapshot_every >= 0.0 && Float.is_finite cfg.snapshot_every) then
    Error "snapshot-every must be non-negative and finite"
  else Ok ()

type link_mon = {
  link : Fabric.link;
  ring : Ring.t;  (* keeps the p95 window sorted *)
  mutable seen : int;  (* the ticks [ring] has a sample for *)
  mutable queued : int;  (* the tick it is queued to be visited at; 0 if none *)
  mutable hot : bool;
  mutable hot_ticks : int;
  mutable peak : float;
}

type tenant_mon = {
  mutable completed : int;
  mutable missed : int;  (* deadline-missed drops and expiries *)
  mutable other : int;  (* rejected / failed / other drops *)
}

type t = {
  sim : Sim.t;
  probes : Probe.t;
  cfg : config;
  prng : Prng.t;  (* the sampler's own stream: packet-sampling draws only *)
  m : Metrics.t;
  fabric : Fabric.t;
  feed : Fabric.reader;  (* the links re-solved since the last tick *)
  links : link_mon array;
  slot : int array;  (* link id -> index in [links]; -1 when not monitored *)
  visit : int array;  (* the next tick's visits, first [n_visit] *)
  mutable n_visit : int;
  mutable polls : int;
  pairs : (string * string * float) array;  (* canonical declared demand *)
  counts : int array;  (* post-warmup sampled packets per pair *)
  missed_ring : Ring.t;  (* per-tick deadline misses *)
  done_ring : Ring.t;  (* per-tick terminal requests *)
  tenants : (string, tenant_mon) Hashtbl.t;
  mutable cur_queue_depth : float;
  mutable active_flows : float;  (* the fabric's flow count at the last tick *)
  mutable tick_missed : int;
  mutable tick_done : int;
  mutable total_samples : int;
  mutable obs_seconds : float;  (* post-warmup observed seconds *)
  mutable started : Time.t;
  mutable ticks : int;
  mutable hot_now : int;
  mutable rev_snapshots : string list;
  mutable sub : Probe.subscription option;
}

let ticks t = t.ticks

let polls t = t.polls

let observed_window t = t.obs_seconds

(* {1 The sFlow-style bus subscriber}

   The monitor learns about control-plane activity from the probe bus,
   not by reaching into [Service]: [Request_done] events carry (tenant,
   missed, completed) and [Stat] events mirror the registry (we watch the
   queue-depth samples). The handler only updates pre-allocated counters;
   everything expensive happens on the tick. *)

let on_event t (ev : Probe.event) =
  match ev.Probe.payload with
  | Probe.Request_done { tenant; missed; completed; _ } ->
    let tm =
      match Hashtbl.find_opt t.tenants tenant with
      | Some tm -> tm
      | None ->
        let tm = { completed = 0; missed = 0; other = 0 } in
        Hashtbl.add t.tenants tenant tm;
        tm
    in
    t.tick_done <- t.tick_done + 1;
    if missed then begin
      t.tick_missed <- t.tick_missed + 1;
      tm.missed <- tm.missed + 1
    end
    else if completed then tm.completed <- tm.completed + 1
    else tm.other <- tm.other + 1
  | Probe.Stat { name = "ctl.queue.depth"; value; _ } -> t.cur_queue_depth <- value
  | _ -> ()

(* {1 Packet sampling}

   Demand pairs are fluid rates, not discrete packets, so the sampler
   models the sFlow agent explicitly: over a tick of [period] seconds, a
   pair at [rate] B/s offers [rate*period/pkt_bytes] packets of which
   1-in-[sample_rate] is sampled — a Poisson draw with
   lambda = rate*period/(pkt_bytes*sample_rate). Knuth's product method
   below 30 expected samples, a normal approximation (Box–Muller) above,
   both on the monitor's private PRNG stream. *)

let poisson prng lambda =
  if lambda <= 0.0 then 0
  else if lambda < 30.0 then begin
    let l = exp (-.lambda) in
    let k = ref 0 in
    let p = ref 1.0 in
    while
      p := !p *. Prng.float prng 1.0;
      !p > l
    do
      incr k
    done;
    !k
  end
  else begin
    let u1 = 1.0 -. Prng.float prng 1.0 in
    let u2 = Prng.float prng 1.0 in
    let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
    let k = Float.round (lambda +. (sqrt lambda *. z)) in
    if k < 0.0 then 0 else int_of_float k
  end

let canonical a b = if String.compare a b <= 0 then (a, b) else (b, a)

let create ?(config = default_config) ?registry cluster ~traffic =
  (match validate config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Flowmon.create: " ^ e));
  let sim = Cluster.sim cluster in
  let fabric = Cluster.fabric cluster in
  let links =
    Fabric.links fabric
    |> List.map (fun link ->
           {
             link;
             ring = Ring.windowed ~capacity:config.retain ~window:config.window;
             seen = 0;
             queued = 0;
             hot = false;
             hot_ticks = 0;
             peak = 0.0;
           })
    |> Array.of_list
  in
  let slot =
    Array.make
      (Array.fold_left (fun acc lm -> Stdlib.max acc (Fabric.link_id lm.link + 1)) 0 links)
      (-1)
  in
  Array.iteri (fun i lm -> slot.(Fabric.link_id lm.link) <- i) links;
  (* One sampled stream per canonical pair: duplicate demand entries for
     the same endpoints (a skewed matrix's mouse + elephant rows) merge,
     so estimates compare against the pair's total declared rate. *)
  let pairs =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (a, b, rate) ->
        let key = canonical a b in
        Hashtbl.replace tbl key
          (rate +. Option.value (Hashtbl.find_opt tbl key) ~default:0.0))
      traffic;
    Hashtbl.fold (fun (a, b) rate acc -> (a, b, rate) :: acc) tbl []
    |> List.sort compare |> Array.of_list
  in
  let t =
    {
      sim;
      probes = Cluster.probes cluster;
      cfg = config;
      (* Split off a private stream so runs without a monitor keep their
         exact PRNG draws (same lazy-split discipline as
         [Service.boot_tenants]). *)
      prng = Prng.split (Sim.prng sim);
      m = (match registry with Some m -> m | None -> Metrics.create ());
      fabric;
      feed = Fabric.reader fabric;
      links;
      slot;
      visit = Array.make (Array.length links) 0;
      n_visit = 0;
      polls = 0;
      pairs;
      counts = Array.make (Array.length pairs) 0;
      missed_ring = Ring.create ~capacity:config.retain;
      done_ring = Ring.create ~capacity:config.retain;
      tenants = Hashtbl.create 8;
      cur_queue_depth = 0.0;
      active_flows = 0.0;
      tick_missed = 0;
      tick_done = 0;
      total_samples = 0;
      obs_seconds = 0.0;
      started = Sim.now sim;
      ticks = 0;
      hot_now = 0;
      rev_snapshots = [];
      sub = None;
    }
  in
  t.sub <- Some (Probe.attach t.probes (on_event t));
  t

let detach t =
  match t.sub with
  | None -> ()
  | Some sub ->
    Probe.detach t.probes sub;
    Fabric.release t.feed;
    t.sub <- None

(* {1 Estimation} *)

let samples t =
  let acc = ref [] in
  for i = Array.length t.pairs - 1 downto 0 do
    let n = t.counts.(i) in
    if n > 0 then begin
      let a, b, _ = t.pairs.(i) in
      acc := (a, b, n) :: !acc
    end
  done;
  !acc

(* Invert the sampling: [n] samples over [w] observed seconds estimate
   n * sample_rate * pkt_bytes / w bytes per second. *)
let estimate t n =
  if t.obs_seconds <= 0.0 then 0.0
  else
    float_of_int n *. float_of_int t.cfg.sample_rate *. t.cfg.pkt_bytes /. t.obs_seconds

let learned t =
  if t.obs_seconds <= 0.0 then []
  else
    samples t |> List.map (fun (a, b, n) -> (a, b, estimate t n))

let burn_rate t =
  let misses = Ring.fold ~n:t.cfg.window ( +. ) 0.0 t.missed_ring in
  let total = Ring.fold ~n:t.cfg.window ( +. ) 0.0 t.done_ring in
  if total <= 0.0 then 0.0 else misses /. total

(* The windowed p95; 0 before the first tick. *)
let p95 lm = if Ring.length lm.ring = 0 then 0.0 else Ring.window_percentile lm.ring 95.0

let hotspots t =
  Array.to_list t.links
  |> List.filter_map (fun lm ->
         if lm.hot then Some (Fabric.link_name lm.link, p95 lm /. Fabric.link_capacity lm.link)
         else None)

let slo_attainment t =
  Hashtbl.fold (fun name tm acc -> (name, tm) :: acc) t.tenants []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, tm) ->
         let terminal = tm.completed + tm.missed + tm.other in
         let att =
           if terminal = 0 then 1.0
           else float_of_int (terminal - tm.missed) /. float_of_int terminal
         in
         (name, tm.completed, tm.missed, att))

(* {1 Snapshot (Prometheus text exposition)} *)

let snapshot t =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "# flowmon snapshot %d t=%g\n" (List.length t.rev_snapshots + 1)
    (Time.to_sec_f (Sim.now t.sim));
  pf "# TYPE flowmon_ticks counter\nflowmon_ticks %d\n" t.ticks;
  pf "# TYPE flowmon_samples_total counter\nflowmon_samples_total %d\n" t.total_samples;
  pf "# TYPE flowmon_link_utilization_bytes gauge\n";
  Array.iter
    (fun lm ->
      pf "flowmon_link_utilization_bytes{link=%S} %g\n" (Fabric.link_name lm.link)
        (match Ring.last lm.ring with Some v -> v | None -> 0.0))
    t.links;
  pf "# TYPE flowmon_link_utilization_p95_bytes gauge\n";
  Array.iter
    (fun lm ->
      pf "flowmon_link_utilization_p95_bytes{link=%S} %g\n" (Fabric.link_name lm.link) (p95 lm))
    t.links;
  pf "# TYPE flowmon_hot_links gauge\nflowmon_hot_links %d\n" t.hot_now;
  pf "# TYPE flowmon_pair_rate_bytes gauge\n";
  List.iter
    (fun (a, b_, n) -> pf "flowmon_pair_rate_bytes{src=%S,dst=%S} %g\n" a b_ (estimate t n))
    (samples t);
  pf "# TYPE flowmon_queue_depth gauge\nflowmon_queue_depth %g\n" t.cur_queue_depth;
  pf "# TYPE flowmon_active_flows gauge\nflowmon_active_flows %g\n" t.active_flows;
  pf "# TYPE flowmon_slo_burn_rate gauge\nflowmon_slo_burn_rate %g\n" (burn_rate t);
  List.iter
    (fun (tenant, completed, missed, att) ->
      pf "flowmon_tenant_completed_total{tenant=%S} %d\n" tenant completed;
      pf "flowmon_tenant_missed_total{tenant=%S} %d\n" tenant missed;
      pf "flowmon_tenant_slo_attainment{tenant=%S} %g\n" tenant att)
    (slo_attainment t);
  Buffer.contents b

let snapshots t = List.rev t.rev_snapshots

(* {1 The tick}

   A tick visits only the links whose sample can differ from the one
   before: those re-solved since the last tick (drained from the feed),
   those whose p95 window still holds a sample other than the newest, and
   hot links, whose [hot_ticks] count every tick. Any other link was
   covered by no re-solve, so its utilisation and capacity are what they
   were, and its window is uniform at that value: pushing it again would
   change no p95, peak or hot flag. Its ring skips those pushes and is
   caught up ({!catch_up}) before anything reads more than its newest
   sample and p95. *)

(* Push the newest sample for every tick the ring skipped before [upto]. *)
let catch_up_link lm upto =
  Ring.repeat_last lm.ring (upto - lm.seen);
  lm.seen <- upto

let catch_up t = Array.iter (fun lm -> catch_up_link lm t.ticks) t.links

(* Queue a drained link for this tick's visits, unless it is not
   monitored or already queued. *)
let drained t l =
  let id = Fabric.link_id l in
  let i = if id < Array.length t.slot then t.slot.(id) else -1 in
  if i >= 0 && t.links.(i).queued <> t.ticks then begin
    t.links.(i).queued <- t.ticks;
    t.visit.(t.n_visit) <- i;
    t.n_visit <- t.n_visit + 1
  end

(* Visit one link at tick [t.ticks]; whether it is hot after. *)
let visit_link t lm =
  catch_up_link lm (t.ticks - 1);
  let u = Fabric.link_utilization t.fabric lm.link in
  t.polls <- t.polls + 1;
  Ring.push lm.ring u;
  lm.seen <- t.ticks;
  if u > lm.peak then lm.peak <- u;
  let frac = Ring.window_percentile lm.ring 95.0 /. Fabric.link_capacity lm.link in
  let hot = frac >= t.cfg.hot_threshold in
  if hot then begin
    lm.hot_ticks <- lm.hot_ticks + 1;
    if not lm.hot then Metrics.incr t.m "ctl.hotspot.flagged";
    Metrics.gauge t.m "ctl.hotspot.frac.max" frac
  end;
  lm.hot <- hot;
  hot

let tick t =
  t.ticks <- t.ticks + 1;
  Metrics.incr t.m "flowmon.ticks";
  let warm = Time.to_sec_f (Time.diff (Sim.now t.sim) t.started) > t.cfg.warmup +. 1e-9 in
  (* Links: the visits carried from the last tick, then the re-solved
     ones. Links added after the monitor (private migration links) drain
     too, and are ignored. *)
  Fabric.drain t.feed (drained t);
  let n = t.n_visit in
  t.n_visit <- 0;
  let hot_now = ref 0 in
  for k = 0 to n - 1 do
    let i = t.visit.(k) in
    let lm = t.links.(i) in
    let hot = visit_link t lm in
    if hot then incr hot_now;
    (* Kept for the next tick, in place: [n_visit <= k]. *)
    if hot || not (Ring.uniform lm.ring) then begin
      lm.queued <- t.ticks + 1;
      t.visit.(t.n_visit) <- i;
      t.n_visit <- t.n_visit + 1
    end
  done;
  t.hot_now <- !hot_now;
  Metrics.gauge t.m "ctl.hotspot.links.max" (float_of_int !hot_now);
  if !hot_now > 0 then Metrics.incr t.m "ctl.hotspot.ticks";
  (* Pairs: one sampling draw per declared demand entry. Draws happen
     every tick (a stationary stream); only post-warmup counts feed the
     estimator. *)
  Array.iteri
    (fun i (_, _, rate) ->
      let lambda =
        rate *. t.cfg.period /. (t.cfg.pkt_bytes *. float_of_int t.cfg.sample_rate)
      in
      let k = poisson t.prng lambda in
      if warm then begin
        t.counts.(i) <- t.counts.(i) + k;
        t.total_samples <- t.total_samples + k
      end)
    t.pairs;
  if warm then t.obs_seconds <- t.obs_seconds +. t.cfg.period;
  (* Control-plane series. *)
  t.active_flows <- float_of_int (Fabric.active_flows t.fabric);
  Ring.push t.missed_ring (float_of_int t.tick_missed);
  Ring.push t.done_ring (float_of_int t.tick_done);
  t.tick_missed <- 0;
  t.tick_done <- 0;
  Metrics.gauge t.m "ctl.slo.burn.max" (burn_rate t);
  if
    t.cfg.snapshot_every > 0.0
    && t.ticks mod Stdlib.max 1 (int_of_float (ceil (t.cfg.snapshot_every /. t.cfg.period)))
       = 0
  then t.rev_snapshots <- snapshot t :: t.rev_snapshots

let start t ~horizon =
  if horizon <= 0.0 || not (Float.is_finite horizon) then
    invalid_arg "Flowmon.start: horizon must be positive and finite";
  t.started <- Sim.now t.sim;
  let n = int_of_float (ceil (horizon /. t.cfg.period)) in
  Sim.spawn t.sim ~name:"flowmon" (fun () ->
      let rec loop k =
        if k > 0 then begin
          Sim.sleep (Time.of_sec_f t.cfg.period);
          (* A detached monitor has released its reader: it stops. *)
          if Option.is_some t.sub then begin
            tick t;
            loop (k - 1)
          end
        end
      in
      loop n)

(* {1 The end-of-run report} *)

let rate_str v =
  if v >= 1e9 then Printf.sprintf "%.2f GB/s" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2f MB/s" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.2f kB/s" (v /. 1e3)
  else Printf.sprintf "%.0f B/s" v

let top_links ?(k = 5) t =
  let table =
    Ninja_metrics.Table.create ~title:(Printf.sprintf "top-%d hot links" k)
      ~columns:[ "link"; "capacity"; "mean"; "p95"; "peak"; "hot ticks" ]
  in
  Array.to_list t.links
  |> List.filter (fun lm -> Ring.length lm.ring > 0)
  |> List.sort (fun a b ->
         match Float.compare (Ring.mean b.ring) (Ring.mean a.ring) with
         | 0 -> String.compare (Fabric.link_name a.link) (Fabric.link_name b.link)
         | c -> c)
  |> List.filteri (fun i _ -> i < k)
  |> List.iter (fun lm ->
         Ninja_metrics.Table.add_row table
           [
             Fabric.link_name lm.link;
             rate_str (Fabric.link_capacity lm.link);
             rate_str (Ring.mean lm.ring);
             rate_str (Ring.percentile lm.ring 95.0);
             rate_str lm.peak;
             string_of_int lm.hot_ticks;
           ]);
  table

let top_pairs ?(k = 5) t =
  let table =
    Ninja_metrics.Table.create ~title:(Printf.sprintf "top-%d talker VM pairs" k)
      ~columns:[ "src"; "dst"; "observed"; "declared"; "samples" ]
  in
  let declared = Array.to_list t.pairs in
  samples t
  |> List.map (fun (a, b, n) -> (a, b, n, estimate t n))
  |> List.sort (fun (a1, b1, _, r1) (a2, b2, _, r2) ->
         match Float.compare r2 r1 with
         | 0 -> compare (a1, b1) (a2, b2)
         | c -> c)
  |> List.filteri (fun i _ -> i < k)
  |> List.iter (fun (a, b, n, est) ->
         let decl =
           List.fold_left
             (fun acc (x, y, r) -> if String.equal x a && String.equal y b then acc +. r else acc)
             0.0 declared
         in
         Ninja_metrics.Table.add_row table
           [ a; b; rate_str est; rate_str decl; string_of_int n ]);
  table

let top_tenants t =
  let table =
    Ninja_metrics.Table.create ~title:"per-tenant SLO attainment"
      ~columns:[ "tenant"; "completed"; "missed"; "attainment" ]
  in
  List.iter
    (fun (tenant, completed, missed, att) ->
      Ninja_metrics.Table.add_row table
        [ tenant; string_of_int completed; string_of_int missed;
          Printf.sprintf "%.1f%%" (100.0 *. att) ])
    (slo_attainment t);
  table

let report ?k t =
  catch_up t;
  [ top_links ?k t; top_pairs ?k t; top_tenants t ]
