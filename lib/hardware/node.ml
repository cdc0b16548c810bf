open Ninja_engine
open Ninja_flownet

type port = { tx : Fabric.link; rx : Fabric.link }

type t = {
  id : int;
  name : string;
  rack : int;
  cpu : Ps_resource.t;
  mem_bytes : float;
  ib_port : port option;
  eth_port : port;
  loopback : Fabric.link;
}

let make_port fabric ~node_name ~net ~capacity =
  {
    tx = Fabric.add_link fabric ~name:(Printf.sprintf "%s.%s.tx" node_name net) ~capacity;
    rx = Fabric.add_link fabric ~name:(Printf.sprintf "%s.%s.rx" node_name net) ~capacity;
  }

let create sim fabric ~id ~name ~rack ~cores ~mem_bytes ~with_ib =
  let ib_port =
    if with_ib then
      Some (make_port fabric ~node_name:name ~net:"ib" ~capacity:Calibration.ib_bandwidth)
    else None
  in
  let eth_port =
    make_port fabric ~node_name:name ~net:"eth" ~capacity:Calibration.eth10g_bandwidth
  in
  let loopback =
    Fabric.add_link fabric ~name:(name ^ ".lo") ~capacity:Calibration.loopback_bandwidth
  in
  {
    id;
    name;
    rack;
    cpu = Ps_resource.create sim ~name:(name ^ ".cpu") ~capacity:cores;
    mem_bytes;
    ib_port;
    eth_port;
    loopback;
  }

let has_ib t = Option.is_some t.ib_port
