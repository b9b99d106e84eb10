(* Tests for cache geometry, the CAM cache and way-memoization. *)

module Geometry = Wayplace.Cache.Geometry
module Replacement = Wayplace.Cache.Replacement
module Cam = Wayplace.Cache.Cam_cache
module Memo = Wayplace.Cache.Way_memo
module Rng = Wayplace.Workloads.Rng

let xscale = Geometry.make ~size_bytes:(32 * 1024) ~assoc:32 ~line_bytes:32
let small = Geometry.make ~size_bytes:64 ~assoc:4 ~line_bytes:8

(* --- Geometry --- *)

let test_geometry_xscale () =
  Alcotest.(check int) "sets" 32 (Geometry.sets xscale);
  Alcotest.(check int) "lines" 1024 (Geometry.lines xscale);
  Alcotest.(check int) "offset bits" 5 (Geometry.offset_bits xscale);
  Alcotest.(check int) "set bits" 5 (Geometry.set_bits xscale);
  Alcotest.(check int) "tag bits" 22 (Geometry.tag_bits xscale);
  Alcotest.(check int) "way bits" 5 (Geometry.way_bits xscale);
  Alcotest.(check int) "slots" 8 (Geometry.slots_per_line xscale);
  Alcotest.(check int) "way span" 1024 (Geometry.way_span_bytes xscale)

let test_geometry_variants () =
  let g = Geometry.make ~size_bytes:(8 * 1024) ~assoc:32 ~line_bytes:32 in
  Alcotest.(check int) "8KB/32w sets" 8 (Geometry.sets g);
  Alcotest.(check int) "8KB/32w way span" 256 (Geometry.way_span_bytes g);
  let g = Geometry.make ~size_bytes:(32 * 1024) ~assoc:8 ~line_bytes:32 in
  Alcotest.(check int) "32KB/8w sets" 128 (Geometry.sets g);
  Alcotest.(check int) "32KB/8w way bits" 3 (Geometry.way_bits g)

let test_geometry_validation () =
  let invalid f = match f () with (_ : Geometry.t) -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "non power of two" true
    (invalid (fun () -> Geometry.make ~size_bytes:3000 ~assoc:4 ~line_bytes:32));
  Alcotest.(check bool) "line too small" true
    (invalid (fun () -> Geometry.make ~size_bytes:1024 ~assoc:4 ~line_bytes:2));
  Alcotest.(check bool) "fewer lines than ways" true
    (invalid (fun () -> Geometry.make ~size_bytes:64 ~assoc:4 ~line_bytes:32))

let test_geometry_decomposition () =
  let addr = 0x0001_2345 in
  Alcotest.(check int) "set of xscale addr" ((addr lsr 5) land 31)
    (Geometry.set_index xscale addr);
  Alcotest.(check int) "tag" (addr lsr 10) (Geometry.tag_of xscale addr);
  Alcotest.(check int) "line base" (addr land lnot 31) (Geometry.line_base xscale addr);
  Alcotest.(check int) "slot" (addr land 31 / 4) (Geometry.instr_slot xscale addr);
  Alcotest.(check bool) "same line" true (Geometry.same_line xscale addr (addr + 1));
  Alcotest.(check bool) "different line" false (Geometry.same_line xscale addr (addr + 32))

let test_way_select () =
  Alcotest.(check int) "low tag bits" 5 (Geometry.way_select xscale ~tag:(32 + 5));
  (* Consecutive way-span chunks land in consecutive ways. *)
  Alcotest.(check int) "chunk 0" 0 (Geometry.way_of_addr xscale 0x100);
  Alcotest.(check int) "chunk 1" 1 (Geometry.way_of_addr xscale (0x100 + 1024));
  Alcotest.(check int) "chunk 2" 2 (Geometry.way_of_addr xscale (0x100 + 2048));
  Alcotest.(check int) "wraps at assoc" 0
    (Geometry.way_of_addr xscale (0x100 + (32 * 1024)))

let prop_geometry_roundtrip =
  QCheck.Test.make ~name:"set/tag/offset recompose the line address" ~count:500
    QCheck.(int_bound 0x0FFF_FFFF)
    (fun addr ->
      let set = Geometry.set_index xscale addr in
      let tag = Geometry.tag_of xscale addr in
      let rebuilt = (tag lsl 10) lor (set lsl 5) in
      rebuilt = Geometry.line_base xscale addr)

(* --- Cam_cache --- *)

let test_cam_miss_then_hit () =
  let c = Cam.create small ~replacement:Replacement.Round_robin in
  let miss = Cam.lookup_full c 0x14 in
  Alcotest.(check bool) "miss" false miss.Cam.hit;
  Alcotest.(check int) "compares all ways" 4 miss.Cam.tag_comparisons;
  let way, evicted = Cam.fill c 0x14 Cam.Victim_by_policy in
  Alcotest.(check (option int)) "no eviction on cold fill" None
    (Option.map (fun (e : Cam.eviction) -> e.tag) evicted);
  let hit = Cam.lookup_full c 0x14 in
  Alcotest.(check bool) "hit" true hit.Cam.hit;
  Alcotest.(check int) "hit way" way hit.Cam.way

let test_cam_lookup_way () =
  let c = Cam.create small ~replacement:Replacement.Round_robin in
  let _ = Cam.fill c 0x14 (Cam.Forced_way 3) in
  let right = Cam.lookup_way c 0x14 ~way:3 in
  Alcotest.(check bool) "probe right way" true right.Cam.hit;
  Alcotest.(check int) "one comparison" 1 right.Cam.tag_comparisons;
  Alcotest.(check int) "one precharge" 1 right.Cam.ways_precharged;
  let wrong = Cam.lookup_way c 0x14 ~way:0 in
  Alcotest.(check bool) "probe wrong way misses" false wrong.Cam.hit;
  Alcotest.(check bool) "way out of range" true
    (match Cam.lookup_way c 0x14 ~way:9 with
    | (_ : Cam.outcome) -> false
    | exception Invalid_argument _ -> true)

let test_cam_forced_fill_range () =
  let c = Cam.create small ~replacement:Replacement.Round_robin in
  Alcotest.(check bool) "forced way out of range" true
    (match Cam.fill c 0x14 (Cam.Forced_way 4) with
    | (_ : int * Cam.eviction option) -> false
    | exception Invalid_argument _ -> true)

let test_cam_fill_idempotent () =
  let c = Cam.create small ~replacement:Replacement.Round_robin in
  let w1, _ = Cam.fill c 0x14 Cam.Victim_by_policy in
  let w2, ev = Cam.fill c 0x14 Cam.Victim_by_policy in
  Alcotest.(check int) "same way" w1 w2;
  Alcotest.(check bool) "no eviction" true (ev = None);
  Alcotest.(check int) "one line valid" 1 (Cam.valid_lines c)

let test_cam_round_robin_eviction () =
  let c = Cam.create small ~replacement:Replacement.Round_robin in
  (* Fill the 4 ways of set 0 (8B lines, 2 sets: set 0 addresses are
     multiples of 16). *)
  let addr i = i * 16 in
  for i = 0 to 3 do
    ignore (Cam.fill c (addr i) Cam.Victim_by_policy)
  done;
  Alcotest.(check int) "set full" 4 (List.length (Cam.resident_tags c ~set:0));
  (* Fifth fill evicts way 0 (round-robin from the beginning). *)
  let way, evicted = Cam.fill c (addr 4) Cam.Victim_by_policy in
  Alcotest.(check int) "evicts way 0" 0 way;
  (match evicted with
  | Some e ->
      Alcotest.(check int) "evicted set" 0 e.Cam.set;
      Alcotest.(check int) "evicted the first line" (Geometry.tag_of small (addr 0)) e.Cam.tag
  | None -> Alcotest.fail "expected an eviction");
  Alcotest.(check (option int)) "victim gone" None (Cam.probe c (addr 0))

let test_cam_lru_eviction () =
  let c = Cam.create small ~replacement:Replacement.Lru in
  let addr i = i * 16 in
  for i = 0 to 3 do
    ignore (Cam.fill c (addr i) Cam.Victim_by_policy)
  done;
  (* Touch line 0 so line 1 becomes the LRU victim. *)
  ignore (Cam.lookup_full c (addr 0));
  let _, evicted = Cam.fill c (addr 4) Cam.Victim_by_policy in
  (match evicted with
  | Some e ->
      Alcotest.(check int) "evicted LRU line" (Geometry.tag_of small (addr 1)) e.Cam.tag
  | None -> Alcotest.fail "expected an eviction")

let test_cam_probe_is_silent () =
  let c = Cam.create small ~replacement:Replacement.Lru in
  let addr i = i * 16 in
  for i = 0 to 3 do
    ignore (Cam.fill c (addr i) Cam.Victim_by_policy)
  done;
  (* Probing must not refresh recency: line 0 stays the LRU victim. *)
  ignore (Cam.probe c (addr 0));
  let _, evicted = Cam.fill c (addr 4) Cam.Victim_by_policy in
  match evicted with
  | Some e ->
      Alcotest.(check int) "probe did not touch recency"
        (Geometry.tag_of small (addr 0))
        e.Cam.tag
  | None -> Alcotest.fail "expected an eviction"

let test_cam_flush_and_invalidate () =
  let c = Cam.create small ~replacement:Replacement.Round_robin in
  let way, _ = Cam.fill c 0x14 Cam.Victim_by_policy in
  Cam.invalidate c ~set:(Geometry.set_index small 0x14) ~way;
  Alcotest.(check (option int)) "invalidate" None (Cam.probe c 0x14);
  ignore (Cam.fill c 0x14 Cam.Victim_by_policy);
  Cam.flush c;
  Alcotest.(check int) "flush" 0 (Cam.valid_lines c)

let test_cam_same_tag_different_sets () =
  let c = Cam.create small ~replacement:Replacement.Round_robin in
  (* 0x14 (set 0) and 0x1C (set 1) share tag 1 but are distinct lines. *)
  ignore (Cam.fill c 0x14 Cam.Victim_by_policy);
  ignore (Cam.fill c 0x1C Cam.Victim_by_policy);
  Alcotest.(check int) "two lines" 2 (Cam.valid_lines c);
  Alcotest.(check bool) "both resident" true
    (Cam.probe c 0x14 <> None && Cam.probe c 0x1C <> None)

(* Property: random traffic never creates duplicate tags in a set, and
   probe agrees with lookup_full. *)
let prop_cam_no_duplicates =
  QCheck.Test.make ~name:"no duplicate lines under random traffic" ~count:60
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let c = Cam.create small ~replacement:Replacement.Round_robin in
      let ok = ref true in
      for _ = 1 to 300 do
        let addr = Rng.int rng 512 * 4 in
        let hit_before = Cam.probe c addr <> None in
        let outcome = Cam.lookup_full c addr in
        if outcome.Cam.hit <> hit_before then ok := false;
        if not outcome.Cam.hit then ignore (Cam.fill c addr Cam.Victim_by_policy);
        for set = 0 to Geometry.sets small - 1 do
          let tags = List.map snd (Cam.resident_tags c ~set) in
          if List.length tags <> List.length (List.sort_uniq compare tags) then
            ok := false
        done
      done;
      !ok)

(* --- Way_memo --- *)

let test_memo_overhead_fraction () =
  Alcotest.(check int) "links per line" 9 (Memo.links_per_line xscale);
  Alcotest.(check int) "link bits" 6 (Memo.link_bits xscale);
  Alcotest.(check (float 0.001)) "21% overhead (paper Section 5)"
    (54.0 /. 256.0)
    (Memo.data_overhead_fraction xscale)

let test_memo_first_fetch_full () =
  let m = Memo.create xscale ~replacement:Replacement.Round_robin in
  let r = Memo.fetch m 0x1000 in
  Alcotest.(check bool) "miss" false r.Memo.hit;
  Alcotest.(check bool) "filled" true r.Memo.filled;
  Alcotest.(check int) "full search" 32 r.Memo.tag_comparisons;
  Alcotest.(check bool) "no link written on entry" false r.Memo.link_written

let test_memo_sequential_link () =
  let m = Memo.create xscale ~replacement:Replacement.Round_robin in
  (* Fetch the last instruction of a line, then the first of the next:
     first crossing misses the link and writes it; repeating the pair
     follows the link with zero comparisons. *)
  let a = 0x101C and b = 0x1020 in
  ignore (Memo.fetch m a);
  let first = Memo.fetch m b in
  Alcotest.(check bool) "first crossing not via link" false first.Memo.link_followed;
  Alcotest.(check bool) "link written" true first.Memo.link_written;
  Memo.reset_stream m;
  ignore (Memo.fetch m a);
  let second = Memo.fetch m b in
  Alcotest.(check bool) "second crossing follows link" true second.Memo.link_followed;
  Alcotest.(check int) "zero comparisons" 0 second.Memo.tag_comparisons;
  Alcotest.(check int) "zero precharges" 0 second.Memo.ways_precharged

let test_memo_branch_link () =
  let m = Memo.create xscale ~replacement:Replacement.Round_robin in
  (* A taken transfer from 0x1000 to 0x2000 uses the slot link. *)
  ignore (Memo.fetch m 0x1000);
  ignore (Memo.fetch m 0x2000);
  Memo.reset_stream m;
  ignore (Memo.fetch m 0x1000);
  let r = Memo.fetch m 0x2000 in
  Alcotest.(check bool) "branch link followed" true r.Memo.link_followed

let test_memo_varying_target_not_followed () =
  let m = Memo.create xscale ~replacement:Replacement.Round_robin in
  (* The same source slot transfers to two different targets (a
     return-like pattern): the second target must not follow the first
     target's link. *)
  ignore (Memo.fetch m 0x1000);
  ignore (Memo.fetch m 0x2000);
  Memo.reset_stream m;
  ignore (Memo.fetch m 0x1000);
  let r = Memo.fetch m 0x3000 in
  Alcotest.(check bool) "different target does a full search" false
    r.Memo.link_followed;
  Alcotest.(check bool) "and rewrites the link" true r.Memo.link_written

let test_memo_note_same_line () =
  let m = Memo.create xscale ~replacement:Replacement.Round_robin in
  ignore (Memo.fetch m 0x1018);
  Memo.note_same_line m 0x101C;
  (* 0x1020 is now a sequential crossing from 0x101C. *)
  let r = Memo.fetch m 0x1020 in
  Alcotest.(check bool) "crossing classified sequential, link written" true
    r.Memo.link_written;
  Alcotest.check_raises "note outside previous line"
    (Invalid_argument "Way_memo.note_same_line: address not in previous line")
    (fun () -> Memo.note_same_line m 0x9999_0000)

let test_memo_flash_clear () =
  let g = small in
  let m = Memo.create ~invalidation:Memo.Flash_clear g ~replacement:Replacement.Round_robin in
  (* Build one link, then cause an eviction; the flash clear must wipe
     every link. *)
  ignore (Memo.fetch m 0x00);
  ignore (Memo.fetch m 0x10);
  Alcotest.(check bool) "a link exists" true (Memo.valid_links m > 0);
  (* Fill set 0 beyond capacity to force an eviction. *)
  Memo.reset_stream m;
  let r = ref None in
  for i = 2 to 5 do
    Memo.reset_stream m;
    r := Some (Memo.fetch m (i * 16))
  done;
  (match !r with
  | Some last -> Alcotest.(check bool) "an eviction happened" true (last.Memo.links_invalidated >= 0)
  | None -> ());
  Alcotest.(check bool) "links cleared by eviction" true (Memo.valid_links m <= 1)

let test_memo_flush () =
  let m = Memo.create xscale ~replacement:Replacement.Round_robin in
  ignore (Memo.fetch m 0x1000);
  ignore (Memo.fetch m 0x2000);
  Memo.flush m;
  Alcotest.(check int) "no links" 0 (Memo.valid_links m);
  let r = Memo.fetch m 0x1000 in
  Alcotest.(check bool) "cold after flush" false r.Memo.hit

(* Precise invalidation must clear links into an evicted line (no
   stale blind follow) while links rebuilt afterwards follow cleanly —
   the residence invariant the fetch path checks on every follow. *)
let test_memo_precise_invalidated_link_then_follow () =
  let g = Geometry.make ~size_bytes:128 ~assoc:2 ~line_bytes:32 in
  let m = Memo.create ~invalidation:Memo.Precise g ~replacement:Replacement.Round_robin in
  let a = 0x00 and b = 0x20 and c = 0x60 and d = 0xA0 in
  (* a sits in set 0; b, c, d contend for the two ways of set 1. *)
  ignore (Memo.fetch m a);
  ignore (Memo.fetch m b);
  ignore (Memo.fetch m a);
  let r = Memo.fetch m b in
  Alcotest.(check bool) "a->b link follows before eviction" true
    r.Memo.link_followed;
  (* Fill c then d into set 1: round-robin evicts b (the refill of b
     below, [filled = true], confirms it was gone). *)
  Memo.reset_stream m;
  ignore (Memo.fetch m c);
  ignore (Memo.fetch m d);
  Memo.reset_stream m;
  ignore (Memo.fetch m a);
  let r = Memo.fetch m b in
  Alcotest.(check bool) "stale a->b link was invalidated" false
    r.Memo.link_followed;
  Alcotest.(check bool) "b refilled through the full path" true r.Memo.filled;
  ignore (Memo.fetch m a);
  let r = Memo.fetch m b in
  Alcotest.(check bool) "rebuilt link follows with residence intact" true
    r.Memo.link_followed

(* Property: under random traffic, a followed link always lands on a
   resident line (the module asserts residence internally) and the
   fetch sequence never raises. *)
let prop_memo_random_traffic =
  QCheck.Test.make ~name:"way-memo invariants under random traffic" ~count:40
    QCheck.(pair (int_bound 10_000) bool)
    (fun (seed, precise) ->
      let invalidation = if precise then Memo.Precise else Memo.Flash_clear in
      let g = Geometry.make ~size_bytes:1024 ~assoc:8 ~line_bytes:32 in
      let m = Memo.create ~invalidation g ~replacement:Replacement.Round_robin in
      let rng = Rng.create seed in
      let addr = ref 0 in
      for _ = 1 to 500 do
        (* Mostly sequential with occasional jumps, like real fetch. *)
        if Rng.bool rng ~p:0.2 then addr := Rng.int rng 1024 * 4
        else addr := !addr + 4;
        if Rng.bool rng ~p:0.02 then Memo.reset_stream m;
        ignore (Memo.fetch m !addr)
      done;
      true)

(* Oracle equivalence: an independent reference model of a
   set-associative cache (round-robin or LRU) must agree with Cam_cache
   on every hit/miss, fill way, eviction and on the full contents,
   under arbitrary traffic. *)
module Oracle = struct
  type set = {
    ways : int option array;  (** tag per way *)
    stamp : int array;  (** last-use time per way (LRU) *)
    mutable cursor : int;  (** round-robin cursor *)
  }

  type t = { assoc : int; lru : bool; sets : set array; mutable clock : int }

  let create ~lru g =
    let assoc = g.Geometry.assoc in
    {
      assoc;
      lru;
      sets =
        Array.init (Geometry.sets g) (fun _ ->
            { ways = Array.make assoc None; stamp = Array.make assoc 0; cursor = 0 });
      clock = 0;
    }

  let touch t s w =
    t.clock <- t.clock + 1;
    s.stamp.(w) <- t.clock

  (* Pure residence check. *)
  let lookup t ~set ~tag =
    let ways = t.sets.(set).ways in
    let rec go w =
      if w >= t.assoc then None
      else if ways.(w) = Some tag then Some w
      else go (w + 1)
    in
    go 0

  (* Full lookup: a hit refreshes the line's age. *)
  let access t ~set ~tag =
    let r = lookup t ~set ~tag in
    Option.iter (touch t t.sets.(set)) r;
    r

  (* Single-way probe: hits only if the line sits in [way]. *)
  let access_way t ~set ~tag ~way =
    let s = t.sets.(set) in
    let hit = s.ways.(way) = Some tag in
    if hit then touch t s way;
    hit

  let victim t s =
    let rec invalid w =
      if w >= t.assoc then None
      else if s.ways.(w) = None then Some w
      else invalid (w + 1)
    in
    match invalid 0 with
    | Some w -> w
    | None when t.lru ->
        let best = ref 0 in
        Array.iteri (fun w st -> if st < s.stamp.(!best) then best := w) s.stamp;
        !best
    | None ->
        let w = s.cursor in
        s.cursor <- (w + 1) mod t.assoc;
        w

  (* The way used and the evicted tag, if any; [forced] pins the way
     of an absent line. *)
  let fill ?forced t ~set ~tag =
    let s = t.sets.(set) in
    match lookup t ~set ~tag with
    | Some w ->
        touch t s w;
        (w, None)
    | None ->
        let w = match forced with Some w -> w | None -> victim t s in
        let evicted = s.ways.(w) in
        s.ways.(w) <- Some tag;
        touch t s w;
        (w, evicted)

  let invalidate t ~set ~way = t.sets.(set).ways.(way) <- None

  let flush t =
    Array.iter
      (fun s ->
        Array.fill s.ways 0 t.assoc None;
        Array.fill s.stamp 0 t.assoc 0;
        s.cursor <- 0)
      t.sets;
    t.clock <- 0
end

(* Besides uniform traffic, half the addresses come from a pool of
   lines that share one set {e and} one residence-memo slot: their line
   numbers differ by multiples of [Geometry.lines g], the memo size.  So
   the memo is constantly overwritten and left stale by evictions,
   invalidations and flushes, and every answer it gives must still be
   the scan's. *)
let prop_cam_matches_oracle =
  QCheck.Test.make ~name:"Cam_cache agrees with a reference model" ~count:80
    QCheck.(triple (int_bound 100_000) (int_range 100 600) bool)
    (fun (seed, steps, lru) ->
      let g = Geometry.make ~size_bytes:512 ~assoc:4 ~line_bytes:16 in
      let assoc = g.Geometry.assoc and lines = Geometry.lines g in
      let replacement = if lru then Replacement.Lru else Replacement.Round_robin in
      let cam = Cam.create g ~replacement in
      let oracle = Oracle.create ~lru g in
      let rng = Rng.create seed in
      let hot = Rng.int rng lines in
      let pick () =
        if Rng.bool rng ~p:0.5 then
          ((hot + (lines * Rng.int rng (2 * assoc))) * g.Geometry.line_bytes)
          + (Rng.int rng (g.Geometry.line_bytes / 4) * 4)
        else Rng.int rng 4096 * 4
      in
      let ok = ref true in
      let agree a b = if a <> b then ok := false in
      for _ = 1 to steps do
        let addr = pick () in
        let set = Geometry.set_index g addr and tag = Geometry.tag_of g addr in
        match Rng.int rng 16 with
        | 0 ->
            Cam.flush cam;
            Oracle.flush oracle
        | 1 | 2 ->
            let way = Rng.int rng assoc in
            Cam.invalidate cam ~set ~way;
            Oracle.invalidate oracle ~set ~way
        | 3 | 4 ->
            let way = Rng.int rng assoc in
            agree (Cam.lookup_way cam addr ~way).Cam.hit
              (Oracle.access_way oracle ~set ~tag ~way)
        | 5 | 6 ->
            let way = Rng.int rng assoc in
            let cam_way, cam_ev = Cam.fill cam addr (Cam.Forced_way way) in
            let oracle_way, oracle_ev = Oracle.fill ~forced:way oracle ~set ~tag in
            agree cam_way oracle_way;
            agree (Option.map (fun e -> e.Cam.tag) cam_ev) oracle_ev
        | 7 -> agree (Cam.probe cam addr) (Oracle.lookup oracle ~set ~tag)
        | _ ->
            let r = Cam.lookup_full cam addr in
            let oracle_hit = Oracle.access oracle ~set ~tag in
            agree (if r.Cam.hit then Some r.Cam.way else None) oracle_hit;
            let cam_way, cam_ev = Cam.fill cam addr Cam.Victim_by_policy in
            let oracle_way, oracle_ev = Oracle.fill oracle ~set ~tag in
            agree cam_way oracle_way;
            agree (Option.map (fun e -> e.Cam.tag) cam_ev) oracle_ev
      done;
      (* Final contents agree exactly. *)
      for set = 0 to Geometry.sets g - 1 do
        let cam_tags = Cam.resident_tags cam ~set in
        Array.iteri
          (fun w tag -> agree tag (List.assoc_opt w cam_tags))
          oracle.Oracle.sets.(set).Oracle.ways
      done;
      !ok)

let fingerprint_of cam =
  let words = ref [] in
  Cam.fingerprint cam ~add:(fun w -> words := w :: !words);
  List.rev !words

(* The residence memo is not machine state: caches that hold the same
   lines, MRU ways and cursors fingerprint equal however their memos
   were left.  x, y and z share a set and a memo slot, which ends up
   naming y's way in [a] and z's in [b]. *)
let test_cam_memo_not_in_fingerprint () =
  let g = Geometry.make ~size_bytes:512 ~assoc:4 ~line_bytes:16 in
  let stride = Geometry.lines g * g.Geometry.line_bytes in
  let x = 0x40 and y = 0x40 + stride and z = 0x40 + (2 * stride) in
  let make () =
    let cam = Cam.create g ~replacement:Replacement.Round_robin in
    List.iter (fun a -> ignore (Cam.fill cam a Cam.Victim_by_policy)) [ x; y; z ];
    cam
  in
  let a = make () and b = make () in
  ignore (Cam.probe a x);
  ignore (Cam.lookup_full a y);
  ignore (Cam.lookup_full b x);
  ignore (Cam.lookup_full b y);
  ignore (Cam.probe b z);
  Alcotest.(check (list int)) "equal fingerprints" (fingerprint_of a) (fingerprint_of b)

(* --- Way_predict --- *)

module Pred = Wayplace.Cache.Way_predict

let test_pred_cold_set () =
  let p = Pred.create small ~replacement:Replacement.Round_robin in
  let r = Pred.access p 0x14 in
  Alcotest.(check bool) "cold miss" false r.Pred.hit;
  Alcotest.(check bool) "not predicted" false r.Pred.predicted_correctly;
  Alcotest.(check int) "full search" 4 r.Pred.tag_comparisons;
  Alcotest.(check int) "penalty" 1 r.Pred.penalty_cycles;
  Alcotest.(check bool) "filled" true r.Pred.filled

let test_pred_mru_hit () =
  let p = Pred.create small ~replacement:Replacement.Round_robin in
  ignore (Pred.access p 0x14);
  let r = Pred.access p 0x14 in
  Alcotest.(check bool) "hit" true r.Pred.hit;
  Alcotest.(check bool) "predicted" true r.Pred.predicted_correctly;
  Alcotest.(check int) "one comparison" 1 r.Pred.tag_comparisons;
  Alcotest.(check int) "no penalty" 0 r.Pred.penalty_cycles

let test_pred_mispredict () =
  let p = Pred.create small ~replacement:Replacement.Round_robin in
  (* Two lines in the same set: alternating accesses mispredict. *)
  ignore (Pred.access p 0x14);
  ignore (Pred.access p 0x34);
  let r = Pred.access p 0x14 in
  Alcotest.(check bool) "hit after mispredict" true r.Pred.hit;
  Alcotest.(check bool) "mispredicted" false r.Pred.predicted_correctly;
  Alcotest.(check int) "1 + remaining ways" 4 r.Pred.tag_comparisons;
  Alcotest.(check int) "penalty cycle" 1 r.Pred.penalty_cycles;
  (* The MRU prediction now tracks 0x14 again: the next access to it
     is predicted correctly. *)
  let again = Pred.access p 0x14 in
  Alcotest.(check bool) "mru retrained" true again.Pred.predicted_correctly

let test_pred_flush () =
  let p = Pred.create small ~replacement:Replacement.Round_robin in
  ignore (Pred.access p 0x14);
  Pred.flush p;
  Alcotest.(check (option int)) "prediction cleared" None (Pred.mru_way p ~set:0);
  let r = Pred.access p 0x14 in
  Alcotest.(check bool) "cold again" false r.Pred.hit

(* --- Filter_cache --- *)

module Filter = Wayplace.Cache.Filter_cache

let test_filter_requires_direct_mapped () =
  Alcotest.(check bool) "assoc > 1 rejected" true
    (match Filter.create ~l0:small () with
    | (_ : Filter.t) -> false
    | exception Invalid_argument _ -> true)

let test_filter_hit_miss () =
  let l0 = Geometry.make ~size_bytes:64 ~assoc:1 ~line_bytes:8 in
  let f = Filter.create ~l0 () in
  let miss = Filter.access f 0x14 in
  Alcotest.(check bool) "cold miss" false miss.Filter.l0_hit;
  Alcotest.(check int) "miss penalty" 1 miss.Filter.penalty_cycles;
  let hit = Filter.access f 0x14 in
  Alcotest.(check bool) "refilled" true hit.Filter.l0_hit;
  Alcotest.(check int) "no penalty" 0 hit.Filter.penalty_cycles;
  Alcotest.(check int) "direct-mapped comparison" 1 hit.Filter.l0_tag_comparisons

let test_filter_conflict () =
  let l0 = Geometry.make ~size_bytes:64 ~assoc:1 ~line_bytes:8 in
  let f = Filter.create ~l0 () in
  ignore (Filter.access f 0x00);
  (* 0x40 maps to the same direct-mapped slot and evicts 0x00. *)
  ignore (Filter.access f 0x40);
  let r = Filter.access f 0x00 in
  Alcotest.(check bool) "conflict miss" false r.Filter.l0_hit

let test_filter_flush () =
  let l0 = Geometry.make ~size_bytes:64 ~assoc:1 ~line_bytes:8 in
  let f = Filter.create ~l0 () in
  ignore (Filter.access f 0x14);
  Filter.flush f;
  let r = Filter.access f 0x14 in
  Alcotest.(check bool) "cold after flush" false r.Filter.l0_hit

(* --- Drowsy --- *)

module Drowsy = Wayplace.Cache.Drowsy

let test_drowsy_validation () =
  Alcotest.(check bool) "zero window" true
    (match Drowsy.create small ~window:0 with
    | (_ : Drowsy.t) -> false
    | exception Invalid_argument _ -> true)

let test_drowsy_wake_semantics () =
  let d = Drowsy.create small ~window:10 in
  Alcotest.(check bool) "first touch wakes" true
    (Drowsy.note_access d ~now:0 ~set:0 ~way:0);
  Alcotest.(check bool) "touch within window stays awake" false
    (Drowsy.note_access d ~now:5 ~set:0 ~way:0);
  Alcotest.(check bool) "touch after window wakes" true
    (Drowsy.note_access d ~now:100 ~set:0 ~way:0)

let test_drowsy_accounting () =
  let d = Drowsy.create small ~window:10 in
  (* Touch line (0,0) at t=0 and t=5; at t=100 it has been awake for
     gap 5 plus the 10-tick tail after t=5. *)
  ignore (Drowsy.note_access d ~now:0 ~set:0 ~way:0);
  ignore (Drowsy.note_access d ~now:5 ~set:0 ~way:0);
  Alcotest.(check (float 1e-9)) "awake ticks" 15.0
    (Drowsy.awake_line_ticks d ~now:100);
  Alcotest.(check (float 1e-9)) "total ticks"
    (float_of_int (Geometry.lines small * 100))
    (Drowsy.total_line_ticks d ~now:100)

let test_drowsy_reset () =
  let d = Drowsy.create small ~window:10 in
  ignore (Drowsy.note_access d ~now:0 ~set:0 ~way:0);
  Drowsy.reset d;
  Alcotest.(check (float 1e-9)) "cleared" 0.0 (Drowsy.awake_line_ticks d ~now:50)

let () =
  Alcotest.run "cache"
    [
      ( "geometry",
        [
          Alcotest.test_case "xscale split" `Quick test_geometry_xscale;
          Alcotest.test_case "variant geometries" `Quick test_geometry_variants;
          Alcotest.test_case "validation" `Quick test_geometry_validation;
          Alcotest.test_case "address decomposition" `Quick test_geometry_decomposition;
          Alcotest.test_case "way selection" `Quick test_way_select;
          QCheck_alcotest.to_alcotest prop_geometry_roundtrip;
        ] );
      ( "cam_cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cam_miss_then_hit;
          Alcotest.test_case "single-way probe" `Quick test_cam_lookup_way;
          Alcotest.test_case "forced-way range" `Quick test_cam_forced_fill_range;
          Alcotest.test_case "fill idempotent" `Quick test_cam_fill_idempotent;
          Alcotest.test_case "round-robin eviction" `Quick test_cam_round_robin_eviction;
          Alcotest.test_case "lru eviction" `Quick test_cam_lru_eviction;
          Alcotest.test_case "probe is silent" `Quick test_cam_probe_is_silent;
          Alcotest.test_case "flush and invalidate" `Quick test_cam_flush_and_invalidate;
          Alcotest.test_case "same tag different sets" `Quick test_cam_same_tag_different_sets;
          QCheck_alcotest.to_alcotest prop_cam_no_duplicates;
          QCheck_alcotest.to_alcotest prop_cam_matches_oracle;
          Alcotest.test_case "memo not in fingerprint" `Quick
            test_cam_memo_not_in_fingerprint;
        ] );
      ( "way_predict",
        [
          Alcotest.test_case "cold set" `Quick test_pred_cold_set;
          Alcotest.test_case "mru hit" `Quick test_pred_mru_hit;
          Alcotest.test_case "mispredict" `Quick test_pred_mispredict;
          Alcotest.test_case "flush" `Quick test_pred_flush;
        ] );
      ( "filter_cache",
        [
          Alcotest.test_case "direct-mapped only" `Quick test_filter_requires_direct_mapped;
          Alcotest.test_case "hit/miss" `Quick test_filter_hit_miss;
          Alcotest.test_case "conflict" `Quick test_filter_conflict;
          Alcotest.test_case "flush" `Quick test_filter_flush;
        ] );
      ( "drowsy",
        [
          Alcotest.test_case "validation" `Quick test_drowsy_validation;
          Alcotest.test_case "wake semantics" `Quick test_drowsy_wake_semantics;
          Alcotest.test_case "accounting" `Quick test_drowsy_accounting;
          Alcotest.test_case "reset" `Quick test_drowsy_reset;
        ] );
      ( "way_memo",
        [
          Alcotest.test_case "21% overhead" `Quick test_memo_overhead_fraction;
          Alcotest.test_case "first fetch" `Quick test_memo_first_fetch_full;
          Alcotest.test_case "sequential link" `Quick test_memo_sequential_link;
          Alcotest.test_case "branch link" `Quick test_memo_branch_link;
          Alcotest.test_case "varying target" `Quick test_memo_varying_target_not_followed;
          Alcotest.test_case "note_same_line" `Quick test_memo_note_same_line;
          Alcotest.test_case "flash clear" `Quick test_memo_flash_clear;
          Alcotest.test_case "precise invalidation then follow" `Quick
            test_memo_precise_invalidated_link_then_follow;
          Alcotest.test_case "flush" `Quick test_memo_flush;
          QCheck_alcotest.to_alcotest prop_memo_random_traffic;
        ] );
    ]
