type t = {
  hosts : (int, int) Hashtbl.t;  (* node id -> batch *)
  vms : (string, int) Hashtbl.t;  (* vm name -> batch *)
  reserved : (int, float) Hashtbl.t;  (* node id -> inbound bytes *)
}

type claim = {
  cbatch : int;
  mutable c_hosts : int list;
  mutable c_vms : string list;
  mutable c_reserved : (int * float) list;
  mutable released : bool;
}

let create () =
  { hosts = Hashtbl.create 16; vms = Hashtbl.create 16; reserved = Hashtbl.create 16 }

let batch c = c.cbatch

let host_free t ?batch id =
  match Hashtbl.find_opt t.hosts id with
  | None -> true
  | Some owner -> ( match batch with Some b -> b = owner | None -> false)

let vm_free t name = not (Hashtbl.mem t.vms name)

let reserved_bytes t id = Option.value (Hashtbl.find_opt t.reserved id) ~default:0.0

let add_reservation t (id, bytes) =
  Hashtbl.replace t.reserved id (reserved_bytes t id +. bytes)

let try_claim t ~batch ~vms ~hosts ~reserved =
  let hosts = List.sort_uniq compare hosts in
  let vms = List.sort_uniq compare vms in
  let ok =
    List.for_all (host_free t ~batch) hosts && List.for_all (vm_free t) vms
  in
  if not ok then None
  else begin
    List.iter (fun id -> Hashtbl.replace t.hosts id batch) hosts;
    List.iter (fun name -> Hashtbl.replace t.vms name batch) vms;
    List.iter (add_reservation t) reserved;
    Some { cbatch = batch; c_hosts = hosts; c_vms = vms; c_reserved = reserved; released = false }
  end

let extend t c ~host ~bytes =
  if not (host_free t ~batch:c.cbatch host) then
    invalid_arg (Printf.sprintf "Locks.extend: node %d is claimed by another batch" host);
  if not (List.mem host c.c_hosts) then begin
    Hashtbl.replace t.hosts host c.cbatch;
    c.c_hosts <- host :: c.c_hosts
  end;
  add_reservation t (host, bytes);
  c.c_reserved <- (host, bytes) :: c.c_reserved

let release t c =
  if not c.released then begin
    c.released <- true;
    List.iter
      (fun id ->
        match Hashtbl.find_opt t.hosts id with
        | Some owner when owner = c.cbatch -> Hashtbl.remove t.hosts id
        | _ -> ())
      c.c_hosts;
    List.iter
      (fun name ->
        match Hashtbl.find_opt t.vms name with
        | Some owner when owner = c.cbatch -> Hashtbl.remove t.vms name
        | _ -> ())
      c.c_vms;
    List.iter
      (fun (id, bytes) ->
        let left = reserved_bytes t id -. bytes in
        if left <= 1.0 then Hashtbl.remove t.reserved id
        else Hashtbl.replace t.reserved id left)
      c.c_reserved
  end

let claimed_hosts t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.hosts [] |> List.sort compare
