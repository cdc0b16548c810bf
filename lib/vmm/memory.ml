(* Dirty/non-zero state is tracked at 64 KiB granularity (16 hardware
   pages per bit): byte-count accuracy is unaffected at the sizes the
   experiments use, and bitmap maintenance is 16x cheaper than per-4KiB
   tracking on multi-GB writers. *)
let page_size = 16 * Ninja_hardware.Calibration.page_size

(* Page bitmaps as 32-bit words in an int array. Writers touch multi-MB
   ranges at a time, so marking must be word-at-a-time, not bit-at-a-time:
   a range update masks whole words and counts the flipped bits with a
   SWAR popcount, making a 1 GB write ~500 word operations instead of
   ~16k bit operations. *)
module Bitset = struct
  type t = int array

  let word_bits = 32

  let full = (1 lsl word_bits) - 1

  let words_for n = (n + word_bits - 1) / word_bits

  (* Bits past the end of [t] read as zero. *)
  let get (t : t) i = i lsr 5 < Array.length t && t.(i lsr 5) land (1 lsl (i land 31)) <> 0

  let grow (t : t) words =
    let grown = Array.make words 0 in
    Array.blit t 0 grown 0 (Array.length t);
    grown

  let popcount w =
    let w = w - ((w lsr 1) land 0x55555555) in
    let w = (w land 0x33333333) + ((w lsr 2) land 0x33333333) in
    let w = (w + (w lsr 4)) land 0x0f0f0f0f in
    (w * 0x01010101) lsr 24 land 0x3f

  (* Word-aligned mask covering the slice of word [w] inside [lo, hi). *)
  let mask_for w lo hi =
    let lo_bit = if w = lo lsr 5 then lo land 31 else 0 in
    let hi_bit = if w = (hi - 1) lsr 5 then (hi - 1) land 31 else 31 in
    ((1 lsl (hi_bit - lo_bit + 1)) - 1) lsl lo_bit

  (* Set every bit in [lo, hi); returns how many were newly set. *)
  let set_range (t : t) lo hi =
    if hi <= lo then 0
    else begin
      let added = ref 0 in
      for w = lo lsr 5 to (hi - 1) lsr 5 do
        let mask = mask_for w lo hi in
        let old = t.(w) in
        let updated = old lor mask in
        if updated <> old then begin
          added := !added + popcount (updated lxor old);
          t.(w) <- updated
        end
      done;
      !added
    end

  (* Clear every bit in [lo, hi); returns how many were cleared. *)
  let clear_range (t : t) lo hi =
    if hi <= lo then 0
    else begin
      let removed = ref 0 in
      for w = lo lsr 5 to (hi - 1) lsr 5 do
        let mask = mask_for w lo hi in
        let old = t.(w) in
        let updated = old land (lnot mask land full) in
        if updated <> old then begin
          removed := !removed + popcount (old lxor updated);
          t.(w) <- updated
        end
      done;
      !removed
    end

  let clear_all (t : t) = Array.fill t 0 (Array.length t) 0
end

(* The bitmaps cover only the allocated prefix of guest memory, the pages
   below [next_free], growing with it: no bit can be set beyond it. A VM
   that only holds its OS image (most of a generated datacenter's fleet)
   thus carries bitmaps a fraction of its size, which keeps a fleet's
   set-up from allocating, and the major GC from working through, bitmaps
   of memory nobody touches. *)
type t = {
  pages : int;
  mutable nonzero : Bitset.t;
  mutable dirty : Bitset.t;
  (* Postcopy dual residency: while a postcopy migration is active, the
     [resident] bitmap records which nonzero pages already live at the
     destination. Pages the guest writes after switchover materialise at
     the destination directly, so [write] marks them resident; the
     puller claims the remaining remote (nonzero, not-yet-resident)
     pages lowest-index-first via [pull_pages]. Allocated by the first
     [begin_postcopy]: a precopy-only VM never pays for it. *)
  mutable resident : Bitset.t;
  mutable resident_count : int;
  mutable postcopy_active : bool;
  mutable pull_cursor : int; (* word index; remote pages never reappear below it *)
  mutable nonzero_count : int;
  mutable dirty_count : int;
  mutable next_free : int; (* bump allocator; freed regions are recycled *)
  mutable free_list : (int * int) list; (* (start, len) *)
}

type region = { start : int; len : int; mutable live : bool }

let pages_of_bytes b = int_of_float (Float.ceil (b /. float_of_int page_size))

let create ~total_bytes =
  if not (total_bytes > 0.0) then invalid_arg "Memory.create: size must be positive";
  let pages = pages_of_bytes total_bytes in
  {
    pages;
    nonzero = [||];
    dirty = [||];
    resident = [||];
    resident_count = 0;
    postcopy_active = false;
    pull_cursor = 0;
    nonzero_count = 0;
    dirty_count = 0;
    next_free = 0;
    free_list = [];
  }

let total_bytes t = float_of_int t.pages *. float_of_int page_size

let alloc t ~bytes =
  let len = pages_of_bytes bytes in
  let fit =
    List.find_opt (fun (_, flen) -> flen >= len) t.free_list
  in
  match fit with
  | Some ((fstart, flen) as entry) ->
    t.free_list <- List.filter (fun e -> e <> entry) t.free_list;
    if flen > len then t.free_list <- (fstart + len, flen - len) :: t.free_list;
    { start = fstart; len; live = true }
  | None ->
    if t.next_free + len > t.pages then invalid_arg "Memory.alloc: out of guest memory";
    let start = t.next_free in
    t.next_free <- start + len;
    let words = Array.length t.nonzero in
    if Bitset.words_for t.next_free > words then begin
      let grown = min (Bitset.words_for t.pages) (max (Bitset.words_for t.next_free) (2 * words)) in
      t.nonzero <- Bitset.grow t.nonzero grown;
      t.dirty <- Bitset.grow t.dirty grown;
      if Array.length t.resident > 0 then t.resident <- Bitset.grow t.resident grown
    end;
    { start; len; live = true }

let region_bytes r = float_of_int r.len *. float_of_int page_size

let write t r ~offset ~bytes =
  if not r.live then invalid_arg "Memory.write: region was freed";
  if offset < 0.0 || bytes < 0.0 then invalid_arg "Memory.write: negative range";
  if bytes = 0.0 then ()
  else begin
    let first = r.start + (int_of_float offset / page_size) in
    let last_excl =
      r.start + (pages_of_bytes (offset +. bytes)) |> fun l -> min l (r.start + r.len)
    in
    t.nonzero_count <- t.nonzero_count + Bitset.set_range t.nonzero first last_excl;
    t.dirty_count <- t.dirty_count + Bitset.set_range t.dirty first last_excl;
    if t.postcopy_active then
      t.resident_count <- t.resident_count + Bitset.set_range t.resident first last_excl
  end

let write_all t r = write t r ~offset:0.0 ~bytes:(region_bytes r)

let free t r =
  if r.live then begin
    r.live <- false;
    let last_excl = r.start + r.len in
    t.nonzero_count <- t.nonzero_count - Bitset.clear_range t.nonzero r.start last_excl;
    t.dirty_count <- t.dirty_count - Bitset.clear_range t.dirty r.start last_excl;
    if t.resident_count > 0 then
      t.resident_count <- t.resident_count - Bitset.clear_range t.resident r.start last_excl;
    t.free_list <- (r.start, r.len) :: t.free_list
  end

let nonzero_bytes t = float_of_int t.nonzero_count *. float_of_int page_size

let zero_bytes t = float_of_int (t.pages - t.nonzero_count) *. float_of_int page_size

let dirty_bytes t = float_of_int t.dirty_count *. float_of_int page_size

let clear_dirty t =
  Bitset.clear_all t.dirty;
  t.dirty_count <- 0

let page_nonzero t i = Bitset.get t.nonzero i

let page_dirty t i = Bitset.get t.dirty i

(* ------------------------------------------------------------------ *)
(* Postcopy residency *)

let reset_residency t =
  if Array.length t.resident < Array.length t.nonzero then
    t.resident <- Array.make (Array.length t.nonzero) 0
  else Bitset.clear_all t.resident;
  t.resident_count <- 0;
  t.pull_cursor <- 0

let begin_postcopy t =
  reset_residency t;
  t.postcopy_active <- true

let end_postcopy t =
  reset_residency t;
  t.postcopy_active <- false

let postcopy_active t = t.postcopy_active

let resident_bytes t = float_of_int t.resident_count *. float_of_int page_size

(* resident ⊆ nonzero: pulls only claim nonzero pages and [write] marks
   both bitmaps, so the difference is exactly the still-at-source set. *)
let remote_bytes t =
  float_of_int (t.nonzero_count - t.resident_count) *. float_of_int page_size

let page_resident t i = Bitset.get t.resident i

let pull_pages t ~max_pages =
  if max_pages <= 0 then 0
  else begin
    let words = Array.length t.nonzero in
    let pulled = ref 0 in
    let w = ref t.pull_cursor in
    while !pulled < max_pages && !w < words do
      let remote = t.nonzero.(!w) land lnot t.resident.(!w) land Bitset.full in
      if remote = 0 then begin
        (* Drained word: remote pages never reappear (post-switchover
           writes land resident), so the cursor can skip it for good. *)
        if !w = t.pull_cursor then t.pull_cursor <- t.pull_cursor + 1;
        incr w
      end
      else begin
        let need = max_pages - !pulled in
        let avail = Bitset.popcount remote in
        if avail <= need then begin
          t.resident.(!w) <- t.resident.(!w) lor remote;
          pulled := !pulled + avail;
          if !w = t.pull_cursor then t.pull_cursor <- t.pull_cursor + 1;
          incr w
        end
        else begin
          (* Claim the lowest [need] set bits of [remote]. *)
          let taken = ref 0 and bit = ref 0 in
          let word = ref t.resident.(!w) in
          while !taken < need do
            let m = 1 lsl !bit in
            if remote land m <> 0 then begin
              word := !word lor m;
              incr taken
            end;
            incr bit
          done;
          t.resident.(!w) <- !word;
          pulled := !pulled + need
        end
      end
    done;
    t.resident_count <- t.resident_count + !pulled;
    !pulled
  end
