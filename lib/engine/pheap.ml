type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }

let is_empty t = t.size = 0

let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow t entry =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap entry in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let add t ~key ~seq value =
  let entry = { key; seq; value } in
  grow t entry;
  (* Sift up. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  t.data.(!i) <- entry;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less entry t.data.(parent) then begin
      t.data.(!i) <- t.data.(parent);
      t.data.(parent) <- entry;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then raise Not_found;
  let min = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    let last = t.data.(t.size) in
    t.data.(0) <- last;
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
      if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = t.data.(!i) in
        t.data.(!i) <- t.data.(!smallest);
        t.data.(!smallest) <- tmp;
        i := !smallest
      end
      else continue := false
    done
  end;
  min.value

let min_key t =
  if t.size = 0 then raise Not_found;
  t.data.(0).key
