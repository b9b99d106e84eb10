type t = {
  entries : int;
  page_bytes : int;
  page_mask : int;  (** [lnot (page_bytes - 1)]: page base by one mask *)
  pages : int array;
      (** page base address per entry; [-1] when invalid, so the scan
          compares this one array (real page bases are non-negative) *)
  valid : bool array;
  wp_bits : bool array;
  mutable rr_next : int;
  mutable last_hit : int;
      (** entry index of the most recent hit/fill, [-1] when unknown — a
          pure lookup accelerator (fetch streams hit the same page for
          long stretches); never changes any lookup result. *)
  memo : int array;
      (** residence memo: page number, masked by [memo_mask] -> the
          entry the page was last filled into or found in.  A hint that
          [find] verifies against [pages], so stale slots are harmless
          and never cleared; not machine state, so not in
          [fingerprint]. *)
  memo_mask : int;
  page_bits : int;
}

type lookup = { hit : bool; way_placed : bool }

(* Four memo slots per entry, rounded up to a power of two, keep page
   aliasing in the memo rare. *)
let memo_slots entries =
  let rec pow2 k = if k >= 4 * entries then k else pow2 (2 * k) in
  pow2 1

let create ~entries ~page_bytes =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  if not (Wp_isa.Addr.is_power_of_two page_bytes) then
    invalid_arg "Tlb.create: page size must be a power of two";
  let slots = memo_slots entries in
  {
    entries;
    page_bytes;
    page_mask = lnot (page_bytes - 1);
    pages = Array.make entries (-1);
    valid = Array.make entries false;
    wp_bits = Array.make entries false;
    rr_next = 0;
    last_hit = -1;
    memo = Array.make slots 0;
    memo_mask = slots - 1;
    page_bits = Wp_isa.Addr.log2 page_bytes;
  }

let entries t = t.entries
let page_bytes t = t.page_bytes
let page_base t addr = addr land t.page_mask

let memo_slot t page = (page lsr t.page_bits) land t.memo_mask

let find t page =
  (* Entries are unique per page (only misses fill), so answering from
     [last_hit] or a verified memo hint is the same answer the scan
     would give.  Returns the entry index or -1 (allocation-free for
     the per-fetch path). *)
  let m = t.last_hit in
  if m >= 0 && t.pages.(m) = page then m
  else begin
    let slot = memo_slot t page in
    let h = t.memo.(slot) in
    if t.pages.(h) = page then h
    else begin
      let rec go i =
        if i >= t.entries then -1
        else if t.pages.(i) = page then i
        else go (i + 1)
      in
      let i = go 0 in
      if i >= 0 then t.memo.(slot) <- i;
      i
    end
  end

(* Int-encoded translate — bit 0 = hit, bit 1 = way-placement bit —
   so the simulator's per-fetch path allocates nothing. *)
let lookup_bits t addr ~wp_bit_of_page =
  let page = page_base t addr in
  match find t page with
  | -1 ->
      let victim =
        let rec invalid i =
          if i >= t.entries then -1
          else if not t.valid.(i) then i
          else invalid (i + 1)
        in
        match invalid 0 with
        | -1 ->
            let i = t.rr_next in
            t.rr_next <- (if i + 1 = t.entries then 0 else i + 1);
            i
        | i -> i
      in
      let wp = wp_bit_of_page page in
      t.pages.(victim) <- page;
      t.valid.(victim) <- true;
      t.wp_bits.(victim) <- wp;
      t.last_hit <- victim;
      t.memo.(memo_slot t page) <- victim;
      if wp then 2 else 0
  | i ->
      t.last_hit <- i;
      if t.wp_bits.(i) then 3 else 1

let lookup t addr ~wp_bit_of_page =
  let bits = lookup_bits t addr ~wp_bit_of_page in
  { hit = bits land 1 = 1; way_placed = bits land 2 = 2 }

let flush t =
  Array.fill t.pages 0 t.entries (-1);
  Array.fill t.valid 0 t.entries false;
  t.rr_next <- 0;
  t.last_hit <- -1

(* Canonical fingerprint for the steady-state fast-forward detector:
   page and way-placement bit per valid entry (-1/-1 when invalid —
   stale [wp_bits] of invalidated entries are unreachable, since the
   scan matches on [pages] alone), plus the round-robin cursor and
   [last_hit].  The residence memo is not emitted: it only ever answers
   what the scan would, so it is not state. *)
let fingerprint t ~add =
  for i = 0 to t.entries - 1 do
    if t.valid.(i) then begin
      add t.pages.(i);
      add (if t.wp_bits.(i) then 1 else 0)
    end
    else begin
      add (-1);
      add (-1)
    end
  done;
  add t.rr_next;
  add t.last_hit

let valid_entries t =
  Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 t.valid

let pp ppf t =
  Format.fprintf ppf "i-tlb: %d entries, %d B pages, %d valid" t.entries
    t.page_bytes (valid_entries t)
