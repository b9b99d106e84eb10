(* Steady-state fast-forward: the detector/replay engine in isolation
   (synthetic contexts over hand-built traces) plus its integration
   into the simulator (bit-identity with fast-forward on, off, and the
   per-instruction reference loop; skip accounting; bail-outs). *)

module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Simulator = Wayplace.Sim.Simulator
module Runner = Wayplace.Sim.Runner
module Steady_state = Wayplace.Sim.Steady_state
module Replay = Wayplace.Sim.Replay
module Tracer = Wayplace.Workloads.Tracer
module Geometry = Wayplace.Cache.Geometry
module Replacement = Wayplace.Cache.Replacement
module Cam_cache = Wayplace.Cache.Cam_cache
module Drowsy = Wayplace.Cache.Drowsy
module Mibench = Wayplace.Workloads.Mibench
module Spec = Wayplace.Workloads.Spec
module Mp = Wayplace.Mp

(* --- synthetic harness ------------------------------------------- *)

(* A fake machine over a block trace: executing block id [i] costs
   [i + 1] instructions and cycles, and machine "state" is a single
   counter that converges to a fixed point per distinct block (so two
   iterations of any loop leave it equal — every periodic region
   converges on the first recorded iteration).  The executed-position
   log lets tests assert exactly which trace positions ran. *)
type fake = {
  trace : int array;
  mutable state : int;
  executed : int list ref;
  cycles : int ref;
  instrs : int ref;
  stats : Stats.t;
}

let fake_ctx ?(policy = Steady_state.default_policy)
    ?(variant = fun ~start:_ ~period:_ -> true) ?(state_converges = true)
    ?cache ?(scope = "fake") ?headroom trace =
  let f =
    {
      trace;
      state = 0;
      executed = ref [];
      cycles = ref 0;
      instrs = ref 0;
      stats = Stats.create ();
    }
  in
  let report = Steady_state.create_report () in
  let ctx =
    {
      Steady_state.policy;
      report;
      stats = f.stats;
      blocks = trace;
      n_ids = 64;
      n_instrs_of = (fun id -> id + 1);
      stream_invariant = variant;
      fingerprint =
        (fun ~start:_ ~period:_ ~add ->
          add f.state;
          add 42);
      exec =
        (fun k ->
          let id = trace.(k) in
          f.executed := k :: !(f.executed);
          (* Converging: state snaps to a per-block fixed point.
             Diverging: state strictly increases, so no two boundary
             fingerprints are ever equal. *)
          if state_converges then f.state <- id * 7
          else f.state <- f.state + 1;
          f.stats.Stats.fetches <- f.stats.Stats.fetches + id + 1;
          f.cycles := !(f.cycles) + id + 1;
          f.instrs := !(f.instrs) + id + 1);
      set_awake_recorder = (fun _ -> ());
      drowsy_advance = (fun ~since:_ ~delta:_ -> ());
      drowsy_replay = (fun _ ~len:_ ~iters:_ -> ());
      cycles = f.cycles;
      instrs = f.instrs;
      cache;
      cache_scope = scope;
      cycle_headroom = headroom;
    }
  in
  (f, ctx, report)

let trace_sum trace = Array.fold_left (fun a id -> a + id + 1) 0 trace

(* Policy with a tiny skip threshold so short synthetic loops qualify. *)
let eager = { Steady_state.default_policy with min_skip_instrs = 4 }

let check_totals name f =
  (* Whatever was skipped must have been accounted exactly: the
     instruction and cycle totals equal a plain full replay's. *)
  let expect = trace_sum f.trace in
  Alcotest.(check int) (name ^ ": instrs") expect !(f.instrs);
  Alcotest.(check int) (name ^ ": cycles") expect !(f.cycles);
  Alcotest.(check int) (name ^ ": fetches") expect f.stats.Stats.fetches

(* A loop body [3; 5] repeated [iters] times, with distinct entry and
   exit stretches. *)
let looped iters =
  Array.concat
    [
      [| 9; 8 |];
      Array.concat (List.init iters (fun _ -> [| 3; 5 |]));
      [| 7; 6 |];
    ]

let test_convergent_loop () =
  let trace = looped 50 in
  let f, ctx, report = fake_ctx ~policy:eager trace in
  Steady_state.run ctx;
  check_totals "loop" f;
  Alcotest.(check bool) "converged" true (report.Steady_state.converged > 0);
  Alcotest.(check bool)
    "skipped most iterations" true
    (report.Steady_state.skipped_iterations > 40);
  Alcotest.(check int) "skip accounting"
    (report.Steady_state.skipped_iterations * 10)
    report.Steady_state.skipped_instrs;
  (* The executed positions must be exactly the non-skipped ones, in
     order and without duplicates. *)
  let ran = List.rev !(f.executed) in
  let sorted = List.sort_uniq compare ran in
  Alcotest.(check bool) "no duplicate positions" true (ran = sorted);
  Alcotest.(check int) "positions executed"
    (Array.length trace - (report.Steady_state.skipped_iterations * 2))
    (List.length ran)

(* Trip counts 0, 1 and 2: below any detectable periodicity, the
   engine must degrade to a plain replay with zero skips. *)
let test_tiny_trip_counts () =
  List.iter
    (fun iters ->
      let trace = looped iters in
      let f, ctx, report = fake_ctx ~policy:eager trace in
      Steady_state.run ctx;
      check_totals (Printf.sprintf "trips=%d" iters) f;
      if iters <= 2 then
        (* One or two occurrences of the body: nothing worth skipping
           remains once two boundary snapshots are needed. *)
        Alcotest.(check int)
          (Printf.sprintf "trips=%d skips nothing" iters)
          0 report.Steady_state.skipped_iterations)
    [ 0; 1; 2; 3 ]

let test_never_converges () =
  (* Strictly-advancing state (an RNG counter): fingerprints never
     match, so everything replays and the attempt budget bounds the
     recording. *)
  let trace = looped 50 in
  let f, ctx, report = fake_ctx ~policy:eager ~state_converges:false trace in
  Steady_state.run ctx;
  check_totals "divergent" f;
  Alcotest.(check int) "nothing skipped" 0
    report.Steady_state.skipped_iterations;
  Alcotest.(check int) "nothing converged" 0 report.Steady_state.converged;
  Alcotest.(check int) "all positions ran" (Array.length trace)
    (List.length !(f.executed))

let test_stream_variant_veto () =
  let trace = looped 50 in
  let f, ctx, report =
    fake_ctx ~policy:eager ~variant:(fun ~start:_ ~period:_ -> false) trace
  in
  Steady_state.run ctx;
  check_totals "vetoed" f;
  Alcotest.(check int) "no attempts" 0 report.Steady_state.regions;
  Alcotest.(check int) "nothing skipped" 0
    report.Steady_state.skipped_iterations

let test_min_skip_threshold () =
  (* The loop is periodic but too small to be worth an attempt under
     the default 2000-instruction threshold. *)
  let trace = looped 20 in
  let _, ctx, report = fake_ctx trace in
  Steady_state.run ctx;
  Alcotest.(check int) "below threshold: no attempts" 0
    report.Steady_state.regions

let test_non_periodic () =
  (* A square-free ternary word (morphism 0->012, 1->02, 2->1): block
     ids repeat constantly, so candidate periods arise everywhere, but
     no factor XX exists — every segment comparison must fail, no
     attempt may fire, and the replay must be exact. *)
  let rec grow w =
    if List.length w >= 200 then w
    else
      grow
        (List.concat_map
           (function 0 -> [ 0; 1; 2 ] | 1 -> [ 0; 2 ] | _ -> [ 1 ])
           w)
  in
  let trace = Array.of_list (grow [ 0 ]) in
  let f, ctx, report = fake_ctx ~policy:eager trace in
  Steady_state.run ctx;
  check_totals "square-free" f;
  Alcotest.(check int) "no attempts" 0 report.Steady_state.regions;
  Alcotest.(check int) "nothing skipped" 0
    report.Steady_state.skipped_iterations

let test_snapshot_budget () =
  (* A budget of zero shuts detection off entirely. *)
  let trace = looped 50 in
  let f, ctx, report =
    fake_ctx ~policy:{ eager with Steady_state.snapshot_budget = 0 } trace
  in
  Steady_state.run ctx;
  check_totals "no budget" f;
  Alcotest.(check int) "no attempts" 0 report.Steady_state.regions

(* --- snapshot cache: bounded reuse across regions and runs -------- *)

module Snapshot_cache = Wayplace.Sim.Snapshot_cache

let dummy_entry fp =
  {
    Snapshot_cache.e_fp = Array.copy fp;
    e_ints = [| 1; 2 |];
    e_awake = [||];
    e_fetches = 1;
    e_cycles = 10;
    e_instrs = 10;
  }

let test_cache_eviction () =
  let c = Snapshot_cache.create ~capacity:2 () in
  let fp = [| 7; 42 |] in
  let key i =
    Snapshot_cache.key ~scope:(string_of_int i) ~period:2 ~ids:[| 3; 5 |] ~fp
      ~fp_len:2
  in
  Snapshot_cache.add c ~key:(key 0) (dummy_entry fp);
  Snapshot_cache.add c ~key:(key 1) (dummy_entry fp);
  (* touch key 0 so key 1 is the LRU victim of the next insert *)
  Alcotest.(check bool)
    "key 0 resident" true
    (Snapshot_cache.find c ~key:(key 0) ~fp ~fp_len:2 <> None);
  Snapshot_cache.add c ~key:(key 2) (dummy_entry fp);
  let k = Snapshot_cache.counters c in
  Alcotest.(check int) "size stays at capacity" 2 k.Snapshot_cache.entries;
  Alcotest.(check int) "one eviction" 1 k.Snapshot_cache.evictions;
  Alcotest.(check bool)
    "LRU key 1 evicted" true
    (Snapshot_cache.find c ~key:(key 1) ~fp ~fp_len:2 = None);
  Alcotest.(check bool)
    "recently used key 0 survives" true
    (Snapshot_cache.find c ~key:(key 0) ~fp ~fp_len:2 <> None);
  Alcotest.(check bool)
    "fresh key 2 resident" true
    (Snapshot_cache.find c ~key:(key 2) ~fp ~fp_len:2 <> None)

let test_cache_fp_word_check () =
  (* Same key, different live fingerprint words: the word-for-word
     re-verification must refuse the hit even though the digest
     matched at insert time. *)
  let c = Snapshot_cache.create () in
  let fp = [| 7; 42 |] in
  let key =
    Snapshot_cache.key ~scope:"s" ~period:2 ~ids:[| 3; 5 |] ~fp ~fp_len:2
  in
  Snapshot_cache.add c ~key (dummy_entry fp);
  Alcotest.(check bool)
    "exact words hit" true
    (Snapshot_cache.find c ~key ~fp ~fp_len:2 <> None);
  Alcotest.(check bool)
    "altered words miss" true
    (Snapshot_cache.find c ~key ~fp:[| 7; 43 |] ~fp_len:2 = None)

(* Two disjoint dynamic regions of the same loop: the second region's
   first boundary must hit the entry the first region converged,
   skipping its recording phase entirely.  The body has period 1 so
   the phase at which the delta gate fires (which depends on the
   preceding stretch) cannot change the canonical pattern slice or
   the boundary state — reuse is only keyed on what the machine can
   observe. *)
let two_regions iters =
  Array.concat
    [
      [| 9; 8 |];
      Array.make iters 4;
      [| 7; 6 |];
      Array.make iters 4;
      [| 1; 2 |];
    ]

let test_cache_cross_region () =
  let trace = two_regions 40 in
  let cache = Snapshot_cache.create () in
  let f, ctx, report = fake_ctx ~policy:eager ~cache trace in
  Steady_state.run ctx;
  check_totals "cross-region" f;
  Alcotest.(check bool)
    "first region inserts" true
    (report.Steady_state.cache_inserts >= 1);
  Alcotest.(check bool)
    "second region hits" true
    (report.Steady_state.cache_hits >= 1);
  (* A second run over the same trace with the warm cache must hit in
     both regions and never insert again, with identical totals. *)
  let f2, ctx2, report2 = fake_ctx ~policy:eager ~cache trace in
  Steady_state.run ctx2;
  check_totals "warm re-run" f2;
  Alcotest.(check int) "warm run inserts nothing" 0
    report2.Steady_state.cache_inserts;
  Alcotest.(check bool)
    "warm run hits everywhere" true
    (report2.Steady_state.cache_hits >= 2)

let test_cache_scope_isolation () =
  (* The same pattern under a different scope (different compiled
     trace or config) must never reuse the entry: reuse is only legal
     where the fingerprints provably coincide, and the scope pins
     that. *)
  let trace = looped 40 in
  let cache = Snapshot_cache.create () in
  let _, ctx_a, report_a = fake_ctx ~policy:eager ~cache ~scope:"conf-A" trace in
  Steady_state.run ctx_a;
  Alcotest.(check bool)
    "scope A inserts" true
    (report_a.Steady_state.cache_inserts >= 1);
  let f_b, ctx_b, report_b =
    fake_ctx ~policy:eager ~cache ~scope:"conf-B" trace
  in
  Steady_state.run ctx_b;
  check_totals "scope B" f_b;
  Alcotest.(check int) "scope B sees no A entries" 0
    report_b.Steady_state.cache_hits;
  Alcotest.(check bool)
    "scope B inserts its own" true
    (report_b.Steady_state.cache_inserts >= 1);
  (* Re-entering scope A reuses A's entry, untouched by B's. *)
  let f_a2, ctx_a2, report_a2 =
    fake_ctx ~policy:eager ~cache ~scope:"conf-A" trace
  in
  Steady_state.run ctx_a2;
  check_totals "scope A re-entry" f_a2;
  Alcotest.(check bool)
    "scope A re-entry hits" true
    (report_a2.Steady_state.cache_hits >= 1)

(* The reuse law, fuzzed: over random concatenations of loopy and
   patternless stretches, a run with a cold cache, a run with a warm
   cache, and a run with no cache at all account for exactly the same
   instruction / cycle / fetch totals as a plain replay. *)
let prop_cached_reuse_equiv =
  QCheck.Test.make ~name:"cached reuse = plain fast-forward" ~count:60
    QCheck.(
      pair (int_range 0 5)
        (small_list (pair (int_range 0 20) (int_range 1 6))))
    (fun (salt, segments) ->
      let trace =
        Array.concat
          (List.concat_map
             (fun (iters, body_len) ->
               let body =
                 Array.init body_len (fun i -> 1 + ((salt + i) mod 7))
               in
               [| salt mod 11; (salt + 5) mod 11 |]
               :: List.init iters (fun _ -> body))
             segments)
      in
      let expect = trace_sum trace in
      let totals f = (!(f.instrs), !(f.cycles), f.stats.Stats.fetches) in
      let run ?cache () =
        let f, ctx, _ = fake_ctx ~policy:eager ?cache trace in
        Steady_state.run ctx;
        totals f
      in
      let plain = run () in
      let cache = Snapshot_cache.create () in
      let cold = run ~cache () in
      let warm = run ~cache () in
      plain = (expect, expect, expect) && cold = plain && warm = plain)

(* --- fingerprint collision resistance ---------------------------- *)

let geo = Geometry.make ~size_bytes:1024 ~assoc:4 ~line_bytes:32

let fp_of f =
  let b = Buffer.create 256 in
  f ~add:(fun x -> Buffer.add_string b (string_of_int x ^ ","));
  Buffer.contents b

let test_cam_fingerprint_distinct () =
  (* Two caches differing only in which lines are resident must not
     fingerprint equal (fast-forwarding across that difference would
     replay the wrong hit/miss sequence). *)
  let c1 = Cam_cache.create geo ~replacement:Replacement.Round_robin in
  let c2 = Cam_cache.create geo ~replacement:Replacement.Round_robin in
  ignore (Cam_cache.fill c1 0x1000 Cam_cache.Victim_by_policy);
  ignore (Cam_cache.fill c2 0x2000 Cam_cache.Victim_by_policy);
  Alcotest.(check bool) "different residency -> different fp" false
    (String.equal
       (fp_of (Cam_cache.fingerprint c1))
       (fp_of (Cam_cache.fingerprint c2)));
  (* Identical fill histories: equal fingerprints. *)
  let c3 = Cam_cache.create geo ~replacement:Replacement.Round_robin in
  let c4 = Cam_cache.create geo ~replacement:Replacement.Round_robin in
  List.iter
    (fun c ->
      ignore (Cam_cache.fill c 0x1000 Cam_cache.Victim_by_policy);
      ignore (Cam_cache.fill c 0x2000 Cam_cache.Victim_by_policy))
    [ c3; c4 ];
  Alcotest.(check string) "same state -> same fp"
    (fp_of (Cam_cache.fingerprint c3))
    (fp_of (Cam_cache.fingerprint c4))

let test_lru_rank_canonical () =
  (* Raw LRU timestamps differ after different access histories, but
     what matters (and what the fingerprint must capture) is the
     ordering.  Same rank order at different absolute clocks must
     fingerprint equal; a different victim order must not. *)
  let mk accesses =
    let c = Cam_cache.create geo ~replacement:Replacement.Lru in
    List.iter
      (fun a ->
        (match Cam_cache.probe c a with
        | None -> ignore (Cam_cache.fill c a Cam_cache.Victim_by_policy)
        | Some _ -> ());
        ignore (Cam_cache.lookup_full c a))
      accesses;
    c
  in
  (* Both histories fill the three lines in the same order (same way
     assignment) and end with recency order 0x3000 > 0x2000 > 0x1000,
     but the second burns many more clock ticks getting there: the
     rank canonicalisation must erase the raw timestamps. *)
  let c1 = mk [ 0x1000; 0x2000; 0x3000 ] in
  let c2 = mk [ 0x1000; 0x2000; 0x1000; 0x2000; 0x1000; 0x2000; 0x3000 ] in
  Alcotest.(check string) "same rank order -> same fp"
    (fp_of (Cam_cache.fingerprint c1))
    (fp_of (Cam_cache.fingerprint c2));
  (* Same lines in the same ways, opposite recency: must differ (the
     next victim choice differs). *)
  let c3 = mk [ 0x1000; 0x2000; 0x3000; 0x3000; 0x2000; 0x1000 ] in
  Alcotest.(check bool) "reversed recency -> different fp" false
    (String.equal
       (fp_of (Cam_cache.fingerprint c1))
       (fp_of (Cam_cache.fingerprint c3)))

let test_drowsy_fingerprint () =
  let mk touches now =
    let d = Drowsy.create geo ~window:8 in
    List.iter (fun (t, set, way) -> ignore (Drowsy.note_access d ~now:t ~set ~way)) touches;
    fp_of (fun ~add -> Drowsy.fingerprint d ~now ~add)
  in
  (* Same gaps at different absolute times: equal. *)
  Alcotest.(check string) "gap-canonical"
    (mk [ (10, 0, 0); (12, 1, 1) ] 14)
    (mk [ (100, 0, 0); (102, 1, 1) ] 104);
  (* Awake line vs drowsy line: different. *)
  Alcotest.(check bool) "awake vs asleep -> different fp" false
    (String.equal (mk [ (10, 0, 0) ] 12) (mk [ (10, 0, 0) ] 40));
  (* Two gaps both beyond the window share one canonical value. *)
  Alcotest.(check string) "all sleep depths equal"
    (mk [ (10, 0, 0) ] 30)
    (mk [ (10, 0, 0) ] 300)

(* --- integration: the simulator with fast-forward ------------------ *)

let loop_kernel =
  {
    (Mibench.find "crc_loop") with
    Spec.name = "crc_loop_test";
    trace_blocks_large = 40_000;
    trace_blocks_small = 40_000;
  }

(* Every instruction a data access: every periodic candidate moves the
   stream cursors, so wherever the data side is live the
   stream-variance veto rejects them all. *)
let memheavy_kernel =
  {
    loop_kernel with
    Spec.name = "memheavy_loop";
    seed = 331;
    mem_ratio = 1.0;
    instrs_per_block_min = 3;
    instrs_per_block_max = 6;
    data_working_set_bytes = 8 * 1024;
    trace_blocks_large = 20_000;
    trace_blocks_small = 20_000;
  }

let prep_of = Hashtbl.create 4

let prepare spec =
  match Hashtbl.find_opt prep_of spec.Spec.name with
  | Some p -> p
  | None ->
      let p = Runner.prepare spec in
      Hashtbl.add prep_of spec.Spec.name p;
      p

let schemes =
  [
    Config.Baseline;
    Config.Way_placement { area_bytes = 2048 };
    Config.Way_memoization;
    Config.Way_prediction;
    Config.Filter_cache { l0_bytes = 512 };
  ]

(* The tentpole invariant, three ways: fast-forward on, fast-forward
   off, and the per-instruction reference loop all bit-identical. *)
let check_three_way spec config =
  let prep = prepare spec in
  let report = Steady_state.create_report () in
  let ff_on = Runner.run_scheme ~fastforward:true ~ff_report:report prep config in
  let ff_off = Runner.run_scheme ~fastforward:false prep config in
  let reference =
    Simulator.run_compiled ~reference_only:true ~config
      ~trace:prep.Runner.trace_large
      (Runner.compiled_for prep config)
  in
  if not (Stats.equal ff_on ff_off) then
    Alcotest.failf "%s / %s: fast-forward diverges from plain fast path:@ %a"
      spec.Spec.name
      (Config.scheme_name config.Config.scheme)
      Stats.pp_diff (ff_on, ff_off);
  if not (Stats.equal ff_on reference) then
    Alcotest.failf "%s / %s: fast-forward diverges from reference:@ %a"
      spec.Spec.name
      (Config.scheme_name config.Config.scheme)
      Stats.pp_diff (ff_on, reference);
  report

let test_loop_schemes () =
  List.iter
    (fun s ->
      let config = Config.xscale s in
      let report = check_three_way loop_kernel config in
      Alcotest.(check bool)
        (Config.scheme_name s ^ ": fast-forward engaged")
        true
        (report.Steady_state.skipped_instrs > 0))
    schemes

let test_cached_loop_schemes () =
  (* One snapshot cache shared across every scheme (the sweep / daemon
     sharing pattern): each cached run must stay bit-identical to the
     plain fast path even as entries from the other schemes accumulate
     (within-run cross-region hits are fine; a cross-scheme hit would
     break the bit-identity check), and a same-config re-run must
     hit. *)
  let prep = prepare loop_kernel in
  let cache = Snapshot_cache.create () in
  List.iter
    (fun s ->
      let config = Config.xscale s in
      let name = Config.scheme_name s in
      let report = Steady_state.create_report () in
      let cached =
        Runner.run_scheme ~fastforward:true ~ff_report:report
          ~snapshot_cache:cache prep config
      in
      let plain = Runner.run_scheme ~fastforward:false prep config in
      if not (Stats.equal cached plain) then
        Alcotest.failf "%s: cached fast-forward diverges:@ %a" name
          Stats.pp_diff (cached, plain);
      let report2 = Steady_state.create_report () in
      let warm =
        Runner.run_scheme ~fastforward:true ~ff_report:report2
          ~snapshot_cache:cache prep config
      in
      if not (Stats.equal warm plain) then
        Alcotest.failf "%s: warm cached run diverges:@ %a" name Stats.pp_diff
          (warm, plain);
      Alcotest.(check bool)
        (name ^ ": same-config re-run hits")
        true
        (report2.Steady_state.cache_hits > 0))
    schemes

let test_memheavy_vetoed () =
  (* A single-process run carries no data state (the trace's data-side
     totals are added at finalisation), so no veto applies to it: it
     stays three-way bit-identical, and its loops converge and skip.
     The veto lives where the data side is live: as an [Mp.Machine]
     process, every candidate pattern is vetoed and nothing is skipped.
     The loops are short, so both runs take a skip threshold low enough
     that the veto, not the cost gate, is what decides. *)
  let config = Config.xscale Config.Baseline in
  ignore (check_three_way memheavy_kernel config);
  let policy = { Steady_state.default_policy with min_skip_instrs = 100 } in
  let prep = prepare memheavy_kernel in
  let single = Steady_state.create_report () in
  let s_on =
    Simulator.run_compiled ~fastforward:true ~ff_policy:policy
      ~ff_report:single ~config ~trace:prep.Runner.trace_large
      (Runner.compiled_for prep config)
  in
  let s_off = Runner.run_scheme ~fastforward:false prep config in
  if not (Stats.equal s_on s_off) then
    Alcotest.failf "mem-heavy: low-threshold fast-forward diverges:@ %a"
      Stats.pp_diff (s_on, s_off);
  Alcotest.(check bool) "no data state: the same loops skip" true
    (single.Steady_state.skipped_instrs > 0);
  let mix = Mp.Mix.of_specs [ memheavy_kernel ] in
  let options = Mp.Machine.oracle_options in
  let report = Steady_state.create_report () in
  let on =
    Mp.Machine.run ~fastforward:true ~ff_policy:policy ~ff_report:report
      ~config ~options mix
  in
  let off = Mp.Machine.run ~fastforward:false ~config ~options mix in
  if not (Stats.equal on.Mp.Machine.aggregate off.Mp.Machine.aggregate) then
    Alcotest.failf "mem-heavy mp: fast-forward diverges:@ %a" Stats.pp_diff
      (on.Mp.Machine.aggregate, off.Mp.Machine.aggregate);
  Alcotest.(check bool) "live data side: patterns vetoed" true
    (report.Steady_state.vetoed > 0);
  Alcotest.(check int) "stream-variant loops skip nothing" 0
    report.Steady_state.skipped_instrs

let test_dside_loops_fastforward () =
  (* Loops that draw random data addresses converge once the data side
     leaves the fingerprint: sha and blowfish_e skip instructions and
     stay bit-identical with fast-forward on, off and through the
     reference step. *)
  List.iter
    (fun name ->
      List.iter
        (fun scheme ->
          let report = check_three_way (Mibench.find name) (Config.xscale scheme) in
          Alcotest.(check bool)
            (Printf.sprintf "%s / %s: skips" name (Config.scheme_name scheme))
            true
            (report.Steady_state.skipped_instrs > 0))
        [ Config.Baseline; Config.Way_placement { area_bytes = 16 * 1024 } ])
    [ "sha"; "blowfish_e" ]

let test_veto_per_driver () =
  (* The region plan is memoised per trace; a vetoing driver scanning
     the trace first must not decide the plan for a driver without a
     veto.  The live-data context (what [Mp.Machine] builds) vetoes
     sha's loops; a single-process run of the same trace afterwards
     must still skip. *)
  let prep = Runner.prepare (Mibench.find "sha") in
  let config = Config.xscale Config.Baseline in
  let m = Replay.machine config ~code_base:Simulator.code_base in
  let s =
    Replay.stream config ~trace:prep.Runner.trace_large ~stats:(Stats.create ())
      (Runner.compiled_for prep config)
  in
  let vetoing = Steady_state.create_report () in
  ignore
    (Steady_state.make
       (Replay.ff_ctx ~report:vetoing ~policy:Steady_state.default_policy
          ~cache:None config m s));
  Alcotest.(check bool) "the live data side vetoes" true
    (vetoing.Steady_state.vetoed > 0);
  let report = Steady_state.create_report () in
  let on = Runner.run_scheme ~fastforward:true ~ff_report:report prep config in
  let off = Runner.run_scheme ~fastforward:false prep config in
  if not (Stats.equal on off) then
    Alcotest.failf "sha after a vetoing scan diverges:@ %a" Stats.pp_diff
      (on, off);
  Alcotest.(check bool) "single-process run still skips" true
    (report.Steady_state.skipped_instrs > 0)

let test_drowsy_crossing () =
  (* A window smaller than one loop iteration's fetch count forces
     lines asleep and awake across iteration boundaries — the drowsy
     replay and advance paths must still be bit-identical. *)
  List.iter
    (fun window ->
      let config =
        Config.with_drowsy
          (Config.with_leakage (Config.xscale Config.Baseline) true)
          (Some window)
      in
      let report = check_three_way loop_kernel config in
      if window >= 256 then
        Alcotest.(check bool)
          (Printf.sprintf "drowsy window %d: still fast-forwards" window)
          true
          (report.Steady_state.skipped_instrs > 0))
    [ 16; 64; 256; 4096 ]

(* Trace positions a plain fast-forward run skips rather than
   executes: the run's [exec] is wrapped to log what it runs. *)
let skipped_positions prep config =
  let trace = prep.Runner.trace_large in
  let m = Replay.machine config ~code_base:Simulator.code_base in
  let s =
    Replay.stream config ~trace ~stats:(Stats.create ())
      (Runner.compiled_for prep config)
  in
  let ctx =
    Replay.ff_ctx ~policy:Steady_state.default_policy ~cache:None config m s
  in
  let executed = Array.make (Array.length trace.Tracer.blocks) false in
  Steady_state.run
    { ctx with exec = (fun k -> executed.(k) <- true; ctx.Steady_state.exec k) };
  List.filter (fun k -> not executed.(k))
    (List.init (Array.length executed) Fun.id)

let test_resize_schedule_bails () =
  (* A resized run takes the fast step without fast-forward, so the
     fast-forward default must be irrelevant, and the run must equal
     the per-instruction reference step under the same schedule —
     including a resize at block 0 and one landing inside a loop that
     a plain run skips. *)
  let prep = prepare loop_kernel in
  let config = Config.xscale (Config.Way_placement { area_bytes = 2048 }) in
  let skipped = skipped_positions prep config in
  let n = Array.length prep.Runner.trace_large.Tracer.blocks in
  Alcotest.(check bool) "a plain run skips most of the loop" true
    (2 * List.length skipped > n);
  let inside = List.nth skipped (List.length skipped / 2) in
  let schedule = [ (0, 1024); (100, 4096); (inside, 2048); (n + 5, 8192) ] in
  let run ?(reference_only = false) () =
    Simulator.run_compiled ~schedule ~reference_only ~config
      ~trace:prep.Runner.trace_large
      (Runner.compiled_for prep config)
  in
  Simulator.set_fastforward_default false;
  let off = run () in
  Simulator.set_fastforward_default true;
  let on = run () in
  let reference = run ~reference_only:true () in
  if not (Stats.equal on off) then
    Alcotest.failf "resize schedule: default toggle changed stats:@ %a"
      Stats.pp_diff (on, off);
  if not (Stats.equal on reference) then
    Alcotest.failf "resize schedule: fast step diverges from reference:@ %a"
      Stats.pp_diff (on, reference)

(* The same compiled trace replayed with a live data side (each
   [Mp.Machine] process) and without one (single-process runs) records
   different effects per iteration, so the two modes must never serve
   each other's snapshot-cache entries.  One cache is shared between
   single-process runs, a live-data replay of the same compiled trace,
   and [Mp.Machine] runs of the same programs; each must equal its
   fast-forward-off result, and the two modes' scopes must differ. *)
let test_cache_dside_modes () =
  let config = Config.xscale (Config.Way_placement { area_bytes = 2048 }) in
  let prep = prepare loop_kernel in
  let trace = prep.Runner.trace_large in
  let compiled = Runner.compiled_for prep config in
  let cache = Snapshot_cache.create () in
  (* A live-data replay of one stream, with or without fast-forward;
     its unpriced counters. *)
  let live ~ff =
    let m = Replay.machine config ~code_base:Simulator.code_base in
    let s = Replay.stream config ~trace ~stats:(Stats.create ()) compiled in
    let ctx =
      Replay.ff_ctx ~policy:Steady_state.default_policy
        ~cache:(if ff then Some cache else None) config m s
    in
    (if ff then Steady_state.run ctx
     else
       let step = Replay.fast_step m s in
       Array.iteri (fun k _ -> step k) s.Replay.blocks);
    Replay.finish s;
    (ctx.Steady_state.cache_scope, Stats.snapshot_ints s.Replay.stats)
  in
  let single () =
    let report = Steady_state.create_report () in
    let on =
      Runner.run_scheme ~fastforward:true ~ff_report:report
        ~snapshot_cache:cache prep config
    in
    let off = Runner.run_scheme ~fastforward:false prep config in
    if not (Stats.equal on off) then
      Alcotest.failf "single-process run over the shared cache diverges:@ %a"
        Stats.pp_diff (on, off);
    report
  in
  let mix = Mp.Mix.of_specs [ loop_kernel; memheavy_kernel ] in
  let options = { Mp.Machine.default_options with Mp.Machine.quantum_cycles = 20_000 } in
  let mp () =
    let on = Mp.Machine.run ~snapshot_cache:cache ~config ~options mix in
    let off = Mp.Machine.run ~fastforward:false ~config ~options mix in
    if Mp.Machine.divergences ~fast:on ~reference:off <> [] then
      Alcotest.fail "mp run over the shared cache diverges"
  in
  let first = single () in
  Alcotest.(check bool) "single-process run publishes" true
    (first.Steady_state.cache_inserts > 0);
  let live_scope, live_on = live ~ff:true in
  let _, live_off = live ~ff:false in
  Alcotest.(check (array int)) "live-data replay over the shared cache"
    live_off live_on;
  mp ();
  ignore (single ());
  mp ();
  let totals_scope =
    let m = Replay.machine config ~code_base:Simulator.code_base in
    let s =
      Replay.stream ~live_data:false config ~trace ~stats:(Stats.create ())
        compiled
    in
    (Replay.ff_ctx ~policy:Steady_state.default_policy ~cache:(Some cache)
       config m s)
      .Steady_state.cache_scope
  in
  Alcotest.(check bool) "the data-side modes have distinct scopes" true
    (live_scope <> totals_scope)

let test_default_toggle () =
  (* run_scheme with no explicit argument follows the global default. *)
  let prep = prepare loop_kernel in
  let config = Config.xscale Config.Baseline in
  Simulator.set_fastforward_default false;
  let off = Runner.run_scheme prep config in
  Simulator.set_fastforward_default true;
  let on = Runner.run_scheme prep config in
  if not (Stats.equal on off) then
    Alcotest.failf "default toggle changed stats:@ %a" Stats.pp_diff (on, off)

let () =
  Alcotest.run "steady_state"
    [
      ( "engine",
        [
          Alcotest.test_case "convergent loop" `Quick test_convergent_loop;
          Alcotest.test_case "trip counts 0/1/2" `Quick test_tiny_trip_counts;
          Alcotest.test_case "never converges" `Quick test_never_converges;
          Alcotest.test_case "stream-variant veto" `Quick
            test_stream_variant_veto;
          Alcotest.test_case "min-skip threshold" `Quick
            test_min_skip_threshold;
          Alcotest.test_case "non-periodic trace" `Quick test_non_periodic;
          Alcotest.test_case "snapshot budget" `Quick test_snapshot_budget;
        ] );
      ( "snapshot-cache",
        [
          Alcotest.test_case "bounded LRU eviction" `Quick test_cache_eviction;
          Alcotest.test_case "fingerprint word re-check" `Quick
            test_cache_fp_word_check;
          Alcotest.test_case "cross-region reuse" `Quick
            test_cache_cross_region;
          Alcotest.test_case "scope isolation" `Quick
            test_cache_scope_isolation;
          Alcotest.test_case "data-side modes never share entries" `Quick
            test_cache_dside_modes;
          QCheck_alcotest.to_alcotest prop_cached_reuse_equiv;
        ] );
      ( "fingerprints",
        [
          Alcotest.test_case "cam residency" `Quick
            test_cam_fingerprint_distinct;
          Alcotest.test_case "lru rank canonicalisation" `Quick
            test_lru_rank_canonical;
          Alcotest.test_case "drowsy gaps" `Quick test_drowsy_fingerprint;
        ] );
      ( "integration",
        [
          Alcotest.test_case "loop kernel, all schemes" `Quick
            test_loop_schemes;
          Alcotest.test_case "shared cache, all schemes" `Quick
            test_cached_loop_schemes;
          Alcotest.test_case "mem-heavy loop vetoed" `Quick
            test_memheavy_vetoed;
          Alcotest.test_case "data-side loops fast-forward" `Quick
            test_dside_loops_fastforward;
          Alcotest.test_case "veto stays out of the shared plan" `Quick
            test_veto_per_driver;
          Alcotest.test_case "drowsy crossing iterations" `Quick
            test_drowsy_crossing;
          Alcotest.test_case "resize schedule bails out" `Quick
            test_resize_schedule_bails;
          Alcotest.test_case "global default toggle" `Quick
            test_default_toggle;
        ] );
    ]
