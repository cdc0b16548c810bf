open Ninja_hardware
open Ninja_vmm

type ctx = Rank.proc

let rank = Rank.rank

let size = Rank.size

let vm = Rank.vm

let wtime ctx =
  Ninja_engine.Time.to_sec_f (Ninja_engine.Sim.now (Cluster.sim (Rank.cluster (Rank.job ctx))))

let default_tag = 0

let compute ctx ~seconds = Vm.compute (Rank.vm ctx) ~core_seconds:seconds

let send ?(tag = default_tag) ctx ~dst ~bytes =
  Rank.send ctx ~dst ~tag ~bytes

let recv ctx ?src ?tag () = Rank.recv ctx ?src ?tag ()

let sendrecv ctx ~dst ~src ~bytes =
  Coll.sendrecv ctx ~dst ~src ~tag:default_tag ~send_bytes:bytes

let barrier ctx = Coll.barrier ctx

let bcast ctx ~root ~bytes = Coll.bcast ctx ~root ~bytes

let reduce ctx ~root ~bytes = Coll.reduce ctx ~root ~bytes

let allreduce ctx ~bytes = Coll.allreduce ctx ~bytes

let alltoall ctx ~bytes_per_pair = Coll.alltoall ctx ~bytes_per_pair

let checkpoint_point ctx = Rank.checkpoint_point ctx

let current_transport ctx ~peer =
  let peers = Rank.procs (Rank.job ctx) in
  match List.nth_opt peers peer with
  | None -> None
  | Some dst -> ( match Rank.select_btl ctx ~dst with k -> Some k | exception Rank.No_route _ -> None)
