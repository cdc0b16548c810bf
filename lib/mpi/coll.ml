open Ninja_engine
open Ninja_hardware
open Ninja_vmm

let large_threshold = 512.0 *. 1024.0

(* Distinct tag spaces per collective; per-pair FIFO ordering makes one tag
   per collective sufficient across consecutive calls. *)
let tag_barrier = 0x10000

let tag_bcast = 0x11000

let tag_reduce = 0x12000

let tag_allgather = 0x13000

let tag_gather = 0x14000

let tag_alltoall = 0x16000

let reduction_cost p ~bytes =
  if bytes > 0.0 then
    Vm.compute (Rank.vm p) ~core_seconds:(bytes /. Calibration.reduction_rate)

let sendrecv p ~dst ~src ~tag ~send_bytes =
  let send_done = Ivar.create () in
  Sim.spawn (Cluster.sim (Rank.cluster (Rank.job p))) ~name:"coll" (fun () ->
      Rank.send p ~dst ~tag ~bytes:send_bytes;
      Ivar.fill send_done ());
  let got = Rank.recv p ~src ~tag () in
  Ivar.read send_done;
  got

(* ------------------------------------------------------------------ *)

let barrier p =
  let n = Rank.size p and me = Rank.rank p in
  if n > 1 then begin
    let mask = ref 1 in
    while !mask < n do
      let dst = (me + !mask) mod n in
      let src = (me - !mask + n) mod n in
      ignore (sendrecv p ~dst ~src ~tag:tag_barrier ~send_bytes:1.0);
      mask := !mask lsl 1
    done
  end

(* ------------------------------------------------------------------ *)
(* Broadcast *)

let bcast_binomial p ~root ~bytes =
  let n = Rank.size p in
  let vr = (Rank.rank p - root + n) mod n in
  let abs x = (x + root) mod n in
  (* Receive from the parent (the lowest set bit of vr). *)
  let mask = ref 1 in
  (try
     while !mask < n do
       if vr land !mask <> 0 then begin
         ignore (Rank.recv p ~src:(abs (vr - !mask)) ~tag:tag_bcast ());
         raise Exit
       end;
       mask := !mask lsl 1
     done
   with Exit -> ());
  (* Relay to children. *)
  mask := !mask lsr 1;
  while !mask > 0 do
    if vr + !mask < n then Rank.send p ~dst:(abs (vr + !mask)) ~tag:tag_bcast ~bytes;
    mask := !mask lsr 1
  done

(* Binomial scatter of [bytes] into n contiguous chunks (MPICH
   scatter_for_bcast). Returns this rank's chunk size. *)
let scatter_for_bcast p ~root ~bytes =
  let n = Rank.size p in
  let vr = (Rank.rank p - root + n) mod n in
  let abs x = (x + root) mod n in
  let chunk = bytes /. float_of_int n in
  let curr = ref (if vr = 0 then bytes else 0.0) in
  let mask = ref 1 in
  (try
     while !mask < n do
       if vr land !mask <> 0 then begin
         let recv_size = bytes -. (float_of_int vr *. chunk) in
         if recv_size > 0.0 then
           curr := Rank.recv p ~src:(abs (vr - !mask)) ~tag:tag_bcast ();
         raise Exit
       end;
       mask := !mask lsl 1
     done
   with Exit -> ());
  mask := !mask lsr 1;
  while !mask > 0 do
    if vr + !mask < n then begin
      let send_size = !curr -. (chunk *. float_of_int !mask) in
      if send_size > 0.0 then begin
        Rank.send p ~dst:(abs (vr + !mask)) ~tag:tag_bcast ~bytes:send_size;
        curr := !curr -. send_size
      end
    end;
    mask := !mask lsr 1
  done;
  chunk

(* Ring allgather of one [chunk] per rank: n-1 steps, each passing the
   chunk received last step on to the right. *)
let ring_allgather p ~tag ~chunk =
  let n = Rank.size p and me = Rank.rank p in
  let right = (me + 1) mod n and left = (me - 1 + n) mod n in
  for _step = 1 to n - 1 do
    ignore (sendrecv p ~dst:right ~src:left ~tag ~send_bytes:chunk)
  done

(* van de Geijn: binomial scatter + ring allgather. Bandwidth term
   ~ 2·bytes·(n-1)/n, which beats the binomial tree's bytes·log n for
   large payloads. *)
let bcast_vandegeijn p ~root ~bytes =
  let chunk = scatter_for_bcast p ~root ~bytes in
  ring_allgather p ~tag:tag_bcast ~chunk

let bcast p ~root ~bytes =
  let n = Rank.size p in
  if root < 0 || root >= n then invalid_arg "Coll.bcast: bad root";
  if n > 1 then
    if bytes <= large_threshold then bcast_binomial p ~root ~bytes
    else bcast_vandegeijn p ~root ~bytes

(* ------------------------------------------------------------------ *)
(* Reduce *)

let reduce_binomial p ~root ~bytes =
  let n = Rank.size p in
  let vr = (Rank.rank p - root + n) mod n in
  let abs x = (x + root) mod n in
  let mask = ref 1 in
  (try
     while !mask < n do
       if vr land !mask = 0 then begin
         if vr + !mask < n then begin
           ignore (Rank.recv p ~src:(abs (vr + !mask)) ~tag:tag_reduce ());
           reduction_cost p ~bytes
         end
       end
       else begin
         Rank.send p ~dst:(abs (vr - !mask)) ~tag:tag_reduce ~bytes;
         raise Exit
       end;
       mask := !mask lsl 1
     done
   with Exit -> ())

(* Ring reduce-scatter: after n-1 steps, rank r owns the fully reduced
   chunk ((r+1) mod n). Each step moves bytes/n and reduces it. *)
let ring_reduce_scatter p ~bytes =
  let n = Rank.size p and me = Rank.rank p in
  let chunk = bytes /. float_of_int n in
  let right = (me + 1) mod n and left = (me - 1 + n) mod n in
  for _step = 1 to n - 1 do
    ignore (sendrecv p ~dst:right ~src:left ~tag:tag_reduce ~send_bytes:chunk);
    reduction_cost p ~bytes:chunk
  done;
  chunk

let reduce_rabenseifner p ~root ~bytes =
  let chunk = ring_reduce_scatter p ~bytes in
  (* Gather the reduced chunks at the root. *)
  if Rank.rank p = root then
    for _ = 1 to Rank.size p - 1 do
      ignore (Rank.recv p ~tag:tag_gather ())
    done
  else Rank.send p ~dst:root ~tag:tag_gather ~bytes:chunk

let reduce p ~root ~bytes =
  let n = Rank.size p in
  if root < 0 || root >= n then invalid_arg "Coll.reduce: bad root";
  if n > 1 then
    if bytes <= large_threshold then reduce_binomial p ~root ~bytes
    else reduce_rabenseifner p ~root ~bytes

(* ------------------------------------------------------------------ *)

let allreduce p ~bytes =
  if Rank.size p > 1 then
    if bytes <= large_threshold then begin
      reduce_binomial p ~root:0 ~bytes;
      bcast_binomial p ~root:0 ~bytes
    end
    else begin
      let chunk = ring_reduce_scatter p ~bytes in
      ring_allgather p ~tag:tag_allgather ~chunk
    end

let alltoall p ~bytes_per_pair =
  let n = Rank.size p and me = Rank.rank p in
  for step = 1 to n - 1 do
    let dst = (me + step) mod n and src = (me - step + n) mod n in
    ignore (sendrecv p ~dst ~src ~tag:tag_alltoall ~send_bytes:bytes_per_pair)
  done
