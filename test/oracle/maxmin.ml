type solution = { rates : float array; freeze_order : int list }

let solve ~capacity routes =
  let n = Array.length routes in
  let links = List.sort_uniq compare (List.concat (Array.to_list routes)) in
  let residual = Hashtbl.create 16 and unfrozen = Hashtbl.create 16 in
  List.iter
    (fun id ->
      Hashtbl.replace residual id (capacity id);
      Hashtbl.replace unfrozen id 0)
    links;
  Array.iter
    (List.iter (fun id -> Hashtbl.replace unfrozen id (Hashtbl.find unfrozen id + 1)))
    routes;
  let rates = Array.make n 0.0 and frozen = Array.make n false in
  let order = ref [] and remaining = ref n in
  while !remaining > 0 do
    let fair, bottleneck =
      List.fold_left
        (fun ((bfair, bid) as best) id ->
          let k = Hashtbl.find unfrozen id in
          if k = 0 then best
          else
            let fair = Float.max 0.0 (Hashtbl.find residual id /. float_of_int k) in
            if fair < bfair || (fair = bfair && id < bid) then (fair, id) else best)
        (infinity, max_int) links
    in
    if bottleneck = max_int then invalid_arg "Maxmin.solve: empty route";
    order := bottleneck :: !order;
    Array.iteri
      (fun i route ->
        if (not frozen.(i)) && List.mem bottleneck route then begin
          frozen.(i) <- true;
          rates.(i) <- fair;
          decr remaining;
          List.iter
            (fun id ->
              Hashtbl.replace residual id (Float.max 0.0 (Hashtbl.find residual id -. fair));
              Hashtbl.replace unfrozen id (Hashtbl.find unfrozen id - 1))
            route
        end)
      routes
  done;
  { rates; freeze_order = List.rev !order }
