(* Tests for the energy model: per-event CAM energies, pricing event
   counts into buckets, and ED products. *)

module Params = Wayplace.Energy.Params
module Cam_energy = Wayplace.Energy.Cam_energy
module Price = Wayplace.Energy.Price
module Ed = Wayplace.Energy.Ed
module Geometry = Wayplace.Cache.Geometry

let xscale = Geometry.make ~size_bytes:(32 * 1024) ~assoc:32 ~line_bytes:32
let e32 = Cam_energy.of_geometry Params.default xscale
let feq = Alcotest.(check (float 1e-9))

let test_tag_search_linear () =
  feq "zero ways" 0.0 (Cam_energy.tag_search e32 ~ways:0);
  feq "one way" e32.Cam_energy.tag_search_one_pj (Cam_energy.tag_search e32 ~ways:1);
  feq "all ways" e32.Cam_energy.tag_search_full_pj (Cam_energy.tag_search e32 ~ways:32);
  feq "linearity"
    (2.0 *. Cam_energy.tag_search e32 ~ways:1)
    (Cam_energy.tag_search e32 ~ways:2);
  Alcotest.(check bool) "negative rejected" true
    (match Cam_energy.tag_search e32 ~ways:(-1) with
    | (_ : float) -> false
    | exception Invalid_argument _ -> true)

let test_full_search_dominates () =
  Alcotest.(check bool) "full is 32x one way" true
    (abs_float
       (e32.Cam_energy.tag_search_full_pj
       -. (32.0 *. e32.Cam_energy.tag_search_one_pj))
    < 1e-9)

let test_energy_scales_with_assoc () =
  let e8 =
    Cam_energy.of_geometry Params.default
      (Geometry.make ~size_bytes:(32 * 1024) ~assoc:8 ~line_bytes:32)
  in
  Alcotest.(check bool) "32-way search costs more than 8-way" true
    (e32.Cam_energy.tag_search_full_pj > e8.Cam_energy.tag_search_full_pj);
  (* 8-way has more sets (128 vs 32) hence longer bit lines. *)
  Alcotest.(check bool) "more sets -> costlier word" true
    (e8.Cam_energy.data_word_pj > e32.Cam_energy.data_word_pj)

let test_memo_factor () =
  feq "21% for 32B/32-way" (1.0 +. (54.0 /. 256.0)) e32.Cam_energy.memo_data_factor;
  let e8 =
    Cam_energy.of_geometry Params.default
      (Geometry.make ~size_bytes:(32 * 1024) ~assoc:8 ~line_bytes:32)
  in
  (* 8-way links are 4 bits: 9 x 4 / 256 = 14%. *)
  feq "14% for 32B/8-way" (1.0 +. (36.0 /. 256.0)) e8.Cam_energy.memo_data_factor

let test_tlb_energy () =
  let small = Cam_energy.tlb_lookup_pj Params.default ~entries:8 ~page_bytes:1024 in
  let big = Cam_energy.tlb_lookup_pj Params.default ~entries:32 ~page_bytes:1024 in
  Alcotest.(check bool) "positive" true (small > 0.0);
  Alcotest.(check bool) "more entries cost more" true (big > small)

let test_way_placed_access_is_cheap () =
  (* The core claim: a way-placed access (1 way + word) costs a small
     fraction of a normal access (32 ways + word). *)
  let normal = e32.Cam_energy.tag_search_full_pj +. e32.Cam_energy.data_word_pj in
  let placed = e32.Cam_energy.tag_search_one_pj +. e32.Cam_energy.data_word_pj in
  Alcotest.(check bool) "at least 3x cheaper" true (placed *. 3.0 < normal)

(* --- Price: hand-computed Cam_energy products --- *)

let params = Params.default
let tlb32 = Cam_energy.tlb_lookup_pj params ~entries:32 ~page_bytes:1024

let prices ?(memo = false) ?l0 () =
  Price.make params ~icache:xscale ~dcache:xscale ~itlb_entries:32
    ~dtlb_entries:32 ~page_bytes:1024 ~memo ~l0

let no_events =
  {
    Price.fetches = 0;
    same_line_fetches = 0;
    tag_ways = 0;
    data_reads = 0;
    icache_misses = 0;
    link_writes = 0;
    l0_probes = 0;
    drowsy_wakes = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    dcache_accesses = 0;
    dcache_misses = 0;
    cycles = 0;
  }

let check_bucket name b expected actual =
  feq
    (Printf.sprintf "%s: %s" name (Price.bucket_name b))
    expected
    actual.(Price.bucket_index b)

let test_price_buckets () =
  Alcotest.(check (list string)) "bucket order"
    [ "icache"; "itlb"; "dcache"; "memory"; "core" ]
    (List.map Price.bucket_name Price.buckets);
  List.iteri
    (fun i b -> Alcotest.(check int) "dense index" i (Price.bucket_index b))
    Price.buckets;
  let e = Price.price (prices ()) no_events ~leakage_pj:0.0 in
  Array.iter (feq "no events, no energy" 0.0) e

(* 10 fetches, 4 of them same-line; the other 6 search all 32 ways and
   translate; 2 miss and fill; 3 data accesses, one a miss; one I-TLB
   walk; 40 cycles. *)
let test_price_baseline () =
  let e =
    Price.price (prices ())
      {
        no_events with
        Price.fetches = 10;
        same_line_fetches = 4;
        tag_ways = 6 * 32;
        data_reads = 10;
        icache_misses = 2;
        itlb_misses = 1;
        dcache_accesses = 3;
        dcache_misses = 1;
        cycles = 40;
      }
      ~leakage_pj:0.0
  in
  check_bucket "baseline" Price.Icache
    ((6.0 *. e32.Cam_energy.tag_search_full_pj)
    +. (10.0 *. e32.Cam_energy.data_word_pj)
    +. (2.0 *. e32.Cam_energy.line_fill_pj))
    e;
  check_bucket "baseline" Price.Itlb (6.0 *. tlb32) e;
  check_bucket "baseline" Price.Dcache
    ((3.0
     *. (tlb32 +. e32.Cam_energy.tag_search_full_pj
       +. e32.Cam_energy.data_word_pj))
    +. e32.Cam_energy.line_fill_pj)
    e;
  check_bucket "baseline" Price.Memory (4.0 *. params.Params.memory_access_pj) e;
  check_bucket "baseline" Price.Core
    (40.0 *. params.Params.core_rest_pj_per_cycle)
    e

(* 5 way-placed accesses (one way each), 2 full searches, and one
   wrong "way-placed" hint: a wasted one-way probe, then a third full
   search.  Every fetch reads one word. *)
let test_price_wayplace_reaccess () =
  let e =
    Price.price (prices ())
      {
        no_events with
        Price.fetches = 8;
        tag_ways = 5 + (3 * 32) + 1;
        data_reads = 8;
      }
      ~leakage_pj:0.0
  in
  check_bucket "wayplace" Price.Icache
    ((5.0 *. e32.Cam_energy.tag_search_one_pj)
    +. (3.0 *. e32.Cam_energy.tag_search_full_pj)
    +. e32.Cam_energy.tag_search_one_pj
    +. (8.0 *. e32.Cam_energy.data_word_pj))
    e

(* Way-memoization pays the link overhead on every data read and fill:
   3 full searches, 5 link follows (no tag search), 2 same-line, one
   fill, 3 link writes. *)
let test_price_memo_factor () =
  let e =
    Price.price (prices ~memo:true ())
      {
        no_events with
        Price.fetches = 10;
        tag_ways = 3 * 32;
        data_reads = 10;
        icache_misses = 1;
        link_writes = 3;
      }
      ~leakage_pj:0.0
  in
  let m = e32.Cam_energy.memo_data_factor in
  check_bucket "waymemo" Price.Icache
    ((3.0 *. e32.Cam_energy.tag_search_full_pj)
    +. (10.0 *. e32.Cam_energy.data_word_pj *. m)
    +. (e32.Cam_energy.line_fill_pj *. m)
    +. (3.0 *. e32.Cam_energy.link_write_pj))
    e

(* Way prediction: 2 correct one-way probes, a mispredict that finds
   the line in the second cycle (1 + 31 ways, the word read twice) and
   a cold set searched whole (32 ways, one word). *)
let test_price_waypred_rereads () =
  let e =
    Price.price (prices ())
      { no_events with Price.fetches = 4; tag_ways = 1 + 1 + 32 + 32; data_reads = 5 }
      ~leakage_pj:0.0
  in
  check_bucket "waypred" Price.Icache
    ((2.0 *. e32.Cam_energy.tag_search_one_pj)
    +. (2.0 *. e32.Cam_energy.tag_search_full_pj)
    +. (5.0 *. e32.Cam_energy.data_word_pj))
    e

(* Filter cache: every one of 10 fetches streams its word from the
   512 B L0, 6 of them probe its single way, and the 2 L0 misses make a
   full L1 access (one of them filling). *)
let test_price_filter_split () =
  let l0 = Geometry.make ~size_bytes:512 ~assoc:1 ~line_bytes:32 in
  let e0 = Cam_energy.of_geometry params l0 in
  let e =
    Price.price (prices ~l0 ())
      {
        no_events with
        Price.fetches = 10;
        l0_probes = 6;
        tag_ways = 2 * 32;
        data_reads = 2;
        icache_misses = 1;
      }
      ~leakage_pj:0.0
  in
  check_bucket "filter" Price.Icache
    ((2.0 *. e32.Cam_energy.tag_search_full_pj)
    +. (2.0 *. e32.Cam_energy.data_word_pj)
    +. e32.Cam_energy.line_fill_pj
    +. (6.0 *. e0.Cam_energy.tag_search_one_pj)
    +. (10.0 *. e0.Cam_energy.data_word_pj))
    e

let test_price_drowsy_leakage () =
  let e =
    Price.price (prices ()) { no_events with Price.drowsy_wakes = 3 }
      ~leakage_pj:12.5
  in
  check_bucket "drowsy" Price.Icache
    ((3.0 *. params.Params.drowsy_wake_pj) +. 12.5)
    e;
  List.iter
    (fun b -> if b <> Price.Icache then check_bucket "drowsy" b 0.0 e)
    Price.buckets

(* --- Ed --- *)

let test_ed_product () =
  feq "raw" 200.0 (Ed.ed_product ~energy_pj:100.0 ~cycles:2)

let test_normalised () =
  feq "half" 0.5 (Ed.normalised ~scheme:50.0 ~baseline:100.0);
  Alcotest.(check bool) "zero baseline rejected" true
    (match Ed.normalised ~scheme:1.0 ~baseline:0.0 with
    | (_ : float) -> false
    | exception Invalid_argument _ -> true)

let test_normalised_ed () =
  feq "combined" 0.25
    (Ed.normalised_ed ~scheme_energy_pj:50.0 ~scheme_cycles:100
       ~baseline_energy_pj:100.0 ~baseline_cycles:200)

let test_percent () = feq "percent" 52.0 (Ed.percent 0.52)

let prop_normalised_identity =
  QCheck.Test.make ~name:"x/x = 1" ~count:100
    QCheck.(float_range 0.001 1e9)
    (fun x -> abs_float (Ed.normalised ~scheme:x ~baseline:x -. 1.0) < 1e-9)

let prop_ed_monotone =
  QCheck.Test.make ~name:"ED monotone in both factors" ~count:100
    QCheck.(pair (float_range 1.0 1e6) (int_range 1 1_000_000))
    (fun (e, c) ->
      Ed.ed_product ~energy_pj:e ~cycles:c
      <= Ed.ed_product ~energy_pj:(e +. 1.0) ~cycles:(c + 1))

let () =
  Alcotest.run "energy"
    [
      ( "cam_energy",
        [
          Alcotest.test_case "tag search linearity" `Quick test_tag_search_linear;
          Alcotest.test_case "full search scaling" `Quick test_full_search_dominates;
          Alcotest.test_case "associativity scaling" `Quick test_energy_scales_with_assoc;
          Alcotest.test_case "way-memo factor" `Quick test_memo_factor;
          Alcotest.test_case "tlb energy" `Quick test_tlb_energy;
          Alcotest.test_case "way-placed cheapness" `Quick test_way_placed_access_is_cheap;
        ] );
      ( "price",
        [
          Alcotest.test_case "buckets" `Quick test_price_buckets;
          Alcotest.test_case "baseline" `Quick test_price_baseline;
          Alcotest.test_case "way-placement re-access" `Quick
            test_price_wayplace_reaccess;
          Alcotest.test_case "way-memo factor" `Quick test_price_memo_factor;
          Alcotest.test_case "way-prediction re-reads" `Quick
            test_price_waypred_rereads;
          Alcotest.test_case "filter L0 and L1" `Quick test_price_filter_split;
          Alcotest.test_case "drowsy wakes and leakage" `Quick
            test_price_drowsy_leakage;
        ] );
      ( "ed",
        [
          Alcotest.test_case "product" `Quick test_ed_product;
          Alcotest.test_case "normalised" `Quick test_normalised;
          Alcotest.test_case "normalised ED" `Quick test_normalised_ed;
          Alcotest.test_case "percent" `Quick test_percent;
          QCheck_alcotest.to_alcotest prop_normalised_identity;
          QCheck_alcotest.to_alcotest prop_ed_monotone;
        ] );
    ]
