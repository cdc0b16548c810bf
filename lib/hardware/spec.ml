type group = {
  count : int;
  name_prefix : string;
  rack : int;
  cores : float;
  mem_bytes : float;
  with_ib : bool;
}

type t = { name : string; groups : group list }

let make ?(name = "cluster") ~ib_nodes ~eth_nodes () =
  let cores = 8.0 and mem_bytes = Units.gb 48.0 in
  let groups =
    [
      { count = ib_nodes; name_prefix = "ib"; rack = 0; cores; mem_bytes; with_ib = true };
      { count = eth_nodes; name_prefix = "eth"; rack = 1; cores; mem_bytes; with_ib = false };
    ]
  in
  { name; groups = List.filter (fun g -> g.count > 0) groups }

let agc = make ~name:"agc" ~ib_nodes:8 ~eth_nodes:8 ()

let agc_ib16 = make ~name:"agc-ib16" ~ib_nodes:16 ~eth_nodes:0 ()

let small = make ~name:"small" ~ib_nodes:2 ~eth_nodes:2 ()

let total_nodes t = List.fold_left (fun acc g -> acc + g.count) 0 t.groups

let table1 =
  [
    ("Node PC", "Dell PowerEdge M610");
    ("CPU", "Quad-core Intel Xeon E5540/2.53GHz x2");
    ("Chipset", "Intel 5520");
    ("Memory", "48 GB DDR3-1066");
    ("Infiniband", "Mellanox ConnectX (MT26428)");
    ("10 GbE", "Broadcom NetXtreme II (BMC57711)");
    ("Disk", "SAS 300 GB hardware RAID-1 array");
    ("Switch Infiniband", "Mellanox M3601Q");
    ("Switch 10 GbE", "Dell M8024");
  ]
