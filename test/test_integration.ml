(* End-to-end invariants: the paper's qualitative claims must hold on
   real simulation runs.  These are the properties EXPERIMENTS.md
   quantifies; here we assert their direction on a few benchmarks. *)

module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Runner = Wayplace.Sim.Runner
module Geometry = Wayplace.Cache.Geometry
module Mibench = Wayplace.Workloads.Mibench

let wp area_kb = Config.Way_placement { area_bytes = area_kb * 1024 }

let prep_of = Hashtbl.create 8

let prepare name =
  match Hashtbl.find_opt prep_of name with
  | Some p -> p
  | None ->
      let p = Runner.prepare (Mibench.find name) in
      Hashtbl.add prep_of name p;
      p

let benchmarks = [ "crc"; "susan_c"; "tiff2bw" ]

let test_wp_saves_icache_energy () =
  List.iter
    (fun name ->
      let c = Runner.compare_to_baseline (prepare name) (Config.xscale (wp 16)) in
      Alcotest.(check bool)
        (name ^ ": way-placement saves i-cache energy")
        true
        (c.Runner.norm_icache_energy < 0.8))
    benchmarks

let test_wm_saves_but_less () =
  List.iter
    (fun name ->
      let prep = prepare name in
      let wp_cmp = Runner.compare_to_baseline prep (Config.xscale (wp 16)) in
      let wm_cmp =
        Runner.compare_to_baseline prep (Config.xscale Config.Way_memoization)
      in
      Alcotest.(check bool)
        (name ^ ": way-memoization saves at 32KB/32-way")
        true
        (wm_cmp.Runner.norm_icache_energy < 1.0);
      Alcotest.(check bool)
        (name ^ ": way-placement beats way-memoization")
        true
        (wp_cmp.Runner.norm_icache_energy < wm_cmp.Runner.norm_icache_energy))
    benchmarks

let test_ed_below_one () =
  List.iter
    (fun name ->
      let c = Runner.compare_to_baseline (prepare name) (Config.xscale (wp 16)) in
      Alcotest.(check bool) (name ^ ": ED < 1") true (c.Runner.norm_ed < 1.0))
    benchmarks

let test_performance_unchanged () =
  (* Paper Section 6.1: "no change in performance" — way-placement's
     cycle count stays within 2% of the baseline at 32KB/32-way. *)
  List.iter
    (fun name ->
      let c = Runner.compare_to_baseline (prepare name) (Config.xscale (wp 16)) in
      Alcotest.(check bool)
        (name ^ ": cycles within 2%")
        true
        (abs_float (c.Runner.norm_cycles -. 1.0) < 0.02))
    benchmarks

let test_area_sweep_monotone_energy () =
  (* Figure 5(a): shrinking the area loses savings gradually. *)
  let prep = prepare "tiff2bw" in
  let energy kb =
    (Runner.compare_to_baseline prep (Config.xscale (wp kb))).Runner.norm_icache_energy
  in
  let e16 = energy 16 and e4 = energy 4 and e1 = energy 1 in
  Alcotest.(check bool) "16KB <= 4KB + slack" true (e16 <= e4 +. 0.02);
  Alcotest.(check bool) "4KB <= 1KB + slack" true (e4 <= e1 +. 0.02);
  Alcotest.(check bool) "1KB still saves" true (e1 < 1.0)

let test_smaller_assoc_saves_less () =
  (* Figure 6(a): the tag side shrinks with associativity, so the
     absolute opportunity shrinks too. *)
  let prep = prepare "susan_c" in
  let energy ways =
    let g = Geometry.make ~size_bytes:(32 * 1024) ~assoc:ways ~line_bytes:32 in
    (Runner.compare_to_baseline prep
       (Config.with_icache (Config.xscale (wp 16)) g))
      .Runner.norm_icache_energy
  in
  Alcotest.(check bool) "32-way saves more than 8-way" true (energy 32 < energy 8)

let test_waymemo_poor_at_low_assoc () =
  (* Figure 6(a)'s anomaly: at low associativity the 21% data-side
     overhead can exceed what link-following saves. *)
  let prep = prepare "tiff2bw" in
  let g = Geometry.make ~size_bytes:(32 * 1024) ~assoc:8 ~line_bytes:32 in
  let wm =
    Runner.compare_to_baseline prep
      (Config.with_icache (Config.xscale Config.Way_memoization) g)
  in
  let wp_cmp =
    Runner.compare_to_baseline prep (Config.with_icache (Config.xscale (wp 16)) g)
  in
  Alcotest.(check bool) "way-memoization near or above baseline" true
    (wm.Runner.norm_icache_energy > 0.9);
  Alcotest.(check bool) "way-placement still saves" true
    (wp_cmp.Runner.norm_icache_energy < wm.Runner.norm_icache_energy)

let test_hint_is_accurate () =
  (* Section 4.1: "using the way-hint bit ... is very accurate". *)
  let prep = prepare "susan_c" in
  let stats = Runner.run_scheme prep (Config.xscale (wp 16)) in
  Alcotest.(check bool) "hint accuracy > 95%" true (Stats.hint_accuracy stats > 0.95)

let test_tag_comparisons_ordering () =
  (* The headline mechanism: way-placement performs far fewer tag
     comparisons than the baseline; way-memoization fewer still (its
     link follows do none at all). *)
  let prep = prepare "crc" in
  let comparisons scheme =
    (Runner.run_scheme prep (Config.xscale scheme)).Stats.tag_comparisons
  in
  let base = comparisons Config.Baseline in
  let placed = comparisons (wp 16) in
  Alcotest.(check bool) "way-placement cuts comparisons 10x" true
    (placed * 10 < base)

let test_replacement_ablation_runs () =
  let prep = prepare "crc" in
  let config =
    Config.with_replacement (Config.xscale (wp 16)) Wayplace.Cache.Replacement.Lru
  in
  let stats = Runner.run_scheme prep config in
  Alcotest.(check bool) "lru config runs" true (stats.Stats.fetches > 0)

let test_icache_share_plausible () =
  (* Montanaro et al.: the i-cache is a major consumer; our baseline
     share must sit in a plausible band (10-35%). *)
  let prep = prepare "crc" in
  let stats = Runner.run_scheme prep (Config.xscale Config.Baseline) in
  let share = Stats.icache_energy_pj stats /. Stats.total_energy_pj stats in
  Alcotest.(check bool) "share in [0.08, 0.40]" true (share > 0.08 && share < 0.40)

(* Property: on randomly mutated miniature specs, every scheme
   simulates cleanly and the bookkeeping invariants hold. *)
let prop_random_specs =
  QCheck.Test.make ~name:"random specs: invariants across all schemes" ~count:12
    QCheck.(triple (int_range 2 9) (int_range 1 3) (int_range 0 2))
    (fun (funcs, seed_salt, loop_depth) ->
      let spec =
        {
          Wayplace.Workloads.Mibench.tiny with
          Wayplace.Workloads.Spec.name = "prop";
          seed = 1000 + (funcs * 31) + seed_salt;
          num_funcs = funcs;
          max_loop_depth = loop_depth;
          trace_blocks_large = 1500;
          trace_blocks_small = 1500;
        }
      in
      let prep = Runner.prepare spec in
      List.for_all
        (fun scheme ->
          let stats = Runner.run_scheme prep (Config.xscale scheme) in
          stats.Stats.fetches
          = stats.Stats.same_line_fetches + stats.Stats.wp_fetches
            + stats.Stats.full_fetches + stats.Stats.link_follows
          && stats.Stats.icache_hits + stats.Stats.icache_misses
             = stats.Stats.fetches - stats.Stats.same_line_fetches
          && stats.Stats.cycles >= stats.Stats.retired_instrs
          && Stats.total_energy_pj stats > 0.0)
        [
          Config.Baseline;
          wp 16;
          wp 1;
          Config.Way_memoization;
          Config.Way_prediction;
          Config.Filter_cache { l0_bytes = 512 };
        ])

let () =
  Alcotest.run "integration"
    [
      ( "paper-claims",
        [
          Alcotest.test_case "wp saves energy" `Slow test_wp_saves_icache_energy;
          Alcotest.test_case "wm saves but less" `Slow test_wm_saves_but_less;
          Alcotest.test_case "ED below one" `Slow test_ed_below_one;
          Alcotest.test_case "performance unchanged" `Slow test_performance_unchanged;
          Alcotest.test_case "area sweep monotone" `Slow test_area_sweep_monotone_energy;
          Alcotest.test_case "associativity trend" `Slow test_smaller_assoc_saves_less;
          Alcotest.test_case "way-memo anomaly" `Slow test_waymemo_poor_at_low_assoc;
          Alcotest.test_case "hint accuracy" `Slow test_hint_is_accurate;
          Alcotest.test_case "tag comparison ordering" `Slow test_tag_comparisons_ordering;
          Alcotest.test_case "replacement ablation" `Slow test_replacement_ablation_runs;
          Alcotest.test_case "icache share" `Slow test_icache_share_plausible;
          QCheck_alcotest.to_alcotest prop_random_specs;
        ] );
    ]
