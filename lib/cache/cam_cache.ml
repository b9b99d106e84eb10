type t = {
  geometry : Geometry.t;
  replacement : Replacement.t;
  tags : int array;
      (** [set * assoc + way] -> tag; [-1] when the line is invalid, so
          the residence scan compares this one array (real tags are
          non-negative, so an invalid slot can never match). *)
  valid : bool array;
  rr_next : int array;  (** round-robin cursor per set *)
  last_use : int array;  (** LRU timestamps, [set * assoc + way] *)
  mru : int array;
      (** per-set way of the most recent hit/fill, [-1] when unknown — a
          pure [find] accelerator.  Tags are unique within a set (fills
          only install absent lines), so checking the MRU way first can
          never return a different way than the scan. *)
  nvalid : int array;
      (** valid lines per set — lets a fill skip the invalid-way scan
          once the set is full (the steady state). *)
  memo : int array;
      (** residence memo: line number [(tag lsl set_bits) lor set],
          masked by [memo_mask] -> the way the line was last installed
          or found in.  A hint that [find_way] verifies against [tags],
          so stale slots are harmless and never cleared; not machine
          state, so not in [fingerprint]. *)
  memo_mask : int;
  set_bits : int;
  mutable clock : int;
  probe : Wp_obs.Probe.t option;
}

type outcome = {
  hit : bool;
  way : int;
  tag_comparisons : int;
  ways_precharged : int;
}

type fill_policy = Victim_by_policy | Forced_way of int
type eviction = { set : int; way : int; tag : int }

let create ?probe geometry ~replacement =
  let n = Geometry.sets geometry * geometry.Geometry.assoc in
  {
    geometry;
    replacement;
    tags = Array.make n (-1);
    valid = Array.make n false;
    rr_next = Array.make (Geometry.sets geometry) 0;
    last_use = Array.make n 0;
    mru = Array.make (Geometry.sets geometry) (-1);
    nvalid = Array.make (Geometry.sets geometry) 0;
    (* One memo slot per line: [n] is a power of two (sets and assoc
       both are), so the mask keeps the set bits and the low
       [log2 assoc] tag bits of the line number. *)
    memo = Array.make n 0;
    memo_mask = n - 1;
    set_bits = Geometry.set_bits geometry;
    clock = 0;
    probe;
  }

let geometry t = t.geometry
let index t ~set ~way = (set * t.geometry.Geometry.assoc) + way

let touch t ~set ~way =
  t.clock <- t.clock + 1;
  t.last_use.(index t ~set ~way) <- t.clock

let memo_slot t ~set ~tag = ((tag lsl t.set_bits) lor set) land t.memo_mask

(* Allocation-free core of [find]: the resident way, or -1.  The hot
   lookup paths call this directly; [find] wraps it in an option for
   the probing/diagnostic callers.  MRU, then the residence memo, then
   the scan: tags are unique within a set, so a verified hint is
   exactly the way the scan would return. *)
let find_way t ~set ~tag =
  let assoc = t.geometry.Geometry.assoc in
  let base = set * assoc in
  let m = t.mru.(set) in
  if m >= 0 && t.tags.(base + m) = tag then m
  else begin
    let slot = memo_slot t ~set ~tag in
    let h = t.memo.(slot) in
    if t.tags.(base + h) = tag then h
    else begin
      (* Invalid slots hold tag -1 and can never match, so the scan is
         a single compare per way over one array. *)
      let rec go way =
        if way >= assoc then -1
        else if t.tags.(base + way) = tag then way
        else go (way + 1)
      in
      let way = go 0 in
      if way >= 0 then t.memo.(slot) <- way;
      way
    end
  end

let find t ~set ~tag =
  match find_way t ~set ~tag with -1 -> None | way -> Some way

let lookup_full t addr =
  let set = Geometry.set_index t.geometry addr in
  let tag = Geometry.tag_of t.geometry addr in
  let assoc = t.geometry.Geometry.assoc in
  (match t.probe with
  | None -> ()
  | Some p -> p (Wp_obs.Probe.Tag_search { ways = assoc }));
  match find_way t ~set ~tag with
  | -1 -> { hit = false; way = -1; tag_comparisons = assoc; ways_precharged = assoc }
  | way ->
      t.mru.(set) <- way;
      touch t ~set ~way;
      { hit = true; way; tag_comparisons = assoc; ways_precharged = assoc }

(* Twin of [lookup_full] that returns just the way (-1 on miss): the
   per-fetch simulator paths know [tag_comparisons] and
   [ways_precharged] are both [assoc] here, so the outcome record would
   be allocation for nothing. *)
let lookup_full_way t addr =
  let set = Geometry.set_index t.geometry addr in
  let tag = Geometry.tag_of t.geometry addr in
  (match t.probe with
  | None -> ()
  | Some p -> p (Wp_obs.Probe.Tag_search { ways = t.geometry.Geometry.assoc }));
  match find_way t ~set ~tag with
  | -1 -> -1
  | way ->
      t.mru.(set) <- way;
      touch t ~set ~way;
      way

let lookup_way t addr ~way =
  let assoc = t.geometry.Geometry.assoc in
  if way < 0 || way >= assoc then
    invalid_arg (Printf.sprintf "Cam_cache.lookup_way: way %d of %d" way assoc);
  let set = Geometry.set_index t.geometry addr in
  let tag = Geometry.tag_of t.geometry addr in
  (match t.probe with
  | None -> ()
  | Some p -> p (Wp_obs.Probe.Tag_search { ways = 1 }));
  let i = index t ~set ~way in
  if t.tags.(i) = tag then begin
    t.mru.(set) <- way;
    touch t ~set ~way;
    { hit = true; way; tag_comparisons = 1; ways_precharged = 1 }
  end
  else { hit = false; way = -1; tag_comparisons = 1; ways_precharged = 1 }

(* Twin of [lookup_way] returning just the hit bit (1 comparison, 1 way
   precharged are implied). *)
let lookup_way_hit t addr ~way =
  let assoc = t.geometry.Geometry.assoc in
  if way < 0 || way >= assoc then
    invalid_arg (Printf.sprintf "Cam_cache.lookup_way_hit: way %d of %d" way assoc);
  let set = Geometry.set_index t.geometry addr in
  let tag = Geometry.tag_of t.geometry addr in
  (match t.probe with
  | None -> ()
  | Some p -> p (Wp_obs.Probe.Tag_search { ways = 1 }));
  let i = index t ~set ~way in
  if t.tags.(i) = tag then begin
    t.mru.(set) <- way;
    touch t ~set ~way;
    true
  end
  else false

let choose_victim t ~set =
  let assoc = t.geometry.Geometry.assoc in
  (* Prefer an invalid way before evicting; skip the scan entirely when
     the set is known full. *)
  let rec invalid_way way =
    if way >= assoc then None
    else if not t.valid.(index t ~set ~way) then Some way
    else invalid_way (way + 1)
  in
  match (if t.nvalid.(set) = assoc then None else invalid_way 0) with
  | Some way -> way
  | None -> begin
      match t.replacement with
      | Replacement.Round_robin ->
          let way = t.rr_next.(set) in
          t.rr_next.(set) <- (if way + 1 = assoc then 0 else way + 1);
          way
      | Replacement.Lru ->
          let best = ref 0 in
          for way = 1 to assoc - 1 do
            if t.last_use.(index t ~set ~way) < t.last_use.(index t ~set ~way:!best)
            then best := way
          done;
          !best
    end

(* Install an absent line: the shared tail of [fill] (which first checks
   residence) and [fill_absent] (whose caller just proved a miss). *)
let install t ~set ~tag policy =
  let way =
    match policy with
    | Victim_by_policy -> choose_victim t ~set
    | Forced_way way ->
        if way < 0 || way >= t.geometry.Geometry.assoc then
          invalid_arg
            (Printf.sprintf "Cam_cache.fill: forced way %d out of range" way);
        way
  in
  let i = index t ~set ~way in
  let evicted =
    if t.valid.(i) then Some { set; way; tag = t.tags.(i) } else None
  in
  if not t.valid.(i) then t.nvalid.(set) <- t.nvalid.(set) + 1;
  t.tags.(i) <- tag;
  t.valid.(i) <- true;
  t.mru.(set) <- way;
  t.memo.(memo_slot t ~set ~tag) <- way;
  touch t ~set ~way;
  (match t.probe with
  | None -> ()
  | Some p -> p (Wp_obs.Probe.Line_fill { evicted = Option.is_some evicted }));
  (way, evicted)

let fill t addr policy =
  let set = Geometry.set_index t.geometry addr in
  let tag = Geometry.tag_of t.geometry addr in
  match find_way t ~set ~tag with
  | (-1) -> install t ~set ~tag policy
  | way ->
      touch t ~set ~way;
      (way, None)

let fill_absent t addr policy =
  let set = Geometry.set_index t.geometry addr in
  let tag = Geometry.tag_of t.geometry addr in
  install t ~set ~tag policy

let probe t addr =
  let set = Geometry.set_index t.geometry addr in
  let tag = Geometry.tag_of t.geometry addr in
  find t ~set ~tag

let resident_way t addr =
  let set = Geometry.set_index t.geometry addr in
  let tag = Geometry.tag_of t.geometry addr in
  find_way t ~set ~tag

(* [n] back-to-back full lookups of one already-resident line, in one
   call: the CAM still precharges and compares every way each time (the
   energy/probe story is unchanged), but the [n] LRU touches collapse to
   a single clock advance — the final [clock]/[last_use] state is
   exactly what [n] successive [lookup_full] calls would leave, since no
   other line is touched in between. *)
let lookup_line_run_way t addr ~n =
  if n <= 0 then invalid_arg "Cam_cache.lookup_line_run: n must be positive";
  let set = Geometry.set_index t.geometry addr in
  let tag = Geometry.tag_of t.geometry addr in
  let assoc = t.geometry.Geometry.assoc in
  (match t.probe with
  | None -> ()
  | Some p ->
      for _ = 1 to n do
        p (Wp_obs.Probe.Tag_search { ways = assoc })
      done);
  match find_way t ~set ~tag with
  | -1 -> invalid_arg "Cam_cache.lookup_line_run: line not resident"
  | way ->
      t.mru.(set) <- way;
      t.clock <- t.clock + n;
      t.last_use.(index t ~set ~way) <- t.clock;
      way

let lookup_line_run t addr ~n =
  let assoc = t.geometry.Geometry.assoc in
  let way = lookup_line_run_way t addr ~n in
  { hit = true; way; tag_comparisons = n * assoc; ways_precharged = n * assoc }

let invalidate t ~set ~way =
  let i = index t ~set ~way in
  if t.valid.(i) then t.nvalid.(set) <- t.nvalid.(set) - 1;
  t.valid.(i) <- false;
  t.tags.(i) <- -1

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.valid 0 (Array.length t.valid) false;
  Array.fill t.rr_next 0 (Array.length t.rr_next) 0;
  Array.fill t.last_use 0 (Array.length t.last_use) 0;
  Array.fill t.mru 0 (Array.length t.mru) (-1);
  Array.fill t.nvalid 0 (Array.length t.nvalid) 0;
  t.clock <- 0

(* Canonical state fingerprint for the steady-state fast-forward
   detector.  Everything future behaviour can observe is emitted: tags
   (with -1 for invalid slots), the per-set MRU accelerator and the
   round-robin cursor.  The raw [clock]/[last_use] values are not —
   only their per-set ordering is observable (LRU victim choice
   compares timestamps), so replacement age is canonicalised to each
   way's rank within its set.  Two caches with equal fingerprints are
   bisimilar: every lookup, fill and victim choice behaves identically
   on both.  The residence memo is not emitted: it only ever answers
   what the scan would, so it is not state. *)
let fingerprint t ~add =
  let assoc = t.geometry.Geometry.assoc in
  let sets = Geometry.sets t.geometry in
  Array.iter add t.tags;
  for set = 0 to sets - 1 do
    add t.mru.(set);
    add t.rr_next.(set)
  done;
  match t.replacement with
  | Replacement.Round_robin -> ()
  | Replacement.Lru ->
      for set = 0 to sets - 1 do
        let base = set * assoc in
        for way = 0 to assoc - 1 do
          let lw = t.last_use.(base + way) in
          let rank = ref 0 in
          for v = 0 to assoc - 1 do
            let lv = t.last_use.(base + v) in
            if lv < lw || (lv = lw && v < way) then incr rank
          done;
          add !rank
        done
      done

let valid_lines t =
  Array.fold_left (fun acc v -> if v then acc + 1 else acc) 0 t.valid

let resident_tags t ~set =
  let assoc = t.geometry.Geometry.assoc in
  let rec go way acc =
    if way < 0 then acc
    else begin
      let i = index t ~set ~way in
      if t.valid.(i) then go (way - 1) ((way, t.tags.(i)) :: acc)
      else go (way - 1) acc
    end
  in
  go (assoc - 1) []

let pp ppf t =
  Format.fprintf ppf "cam-cache %a (%s), %d/%d lines valid" Geometry.pp
    t.geometry
    (Replacement.to_string t.replacement)
    (valid_lines t) (Geometry.lines t.geometry)
