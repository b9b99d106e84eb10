(* The multiprogramming battery: the identity oracle (single process,
   infinite quantum, no kernel == Simulator.run bit for bit), fast-path
   vs reference-loop equivalence under real time-slicing, exact integer
   attribution (per-process + system = aggregate), scheduler and
   switch-cost behaviour, probe/sampler integration including a sampler
   window boundary landing exactly on a context switch, and the
   deterministic mix fuzz generator with its spec-level shrinking. *)

module Mp = Wayplace.Mp
module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Runner = Wayplace.Sim.Runner
module Simulator = Wayplace.Sim.Simulator
module Sampler = Wayplace.Obs.Sampler
module Mibench = Wayplace.Workloads.Mibench
module Progen = Wayplace.Check.Progen

let wp16 = Config.Way_placement { area_bytes = 16 * 1024 }

let all_schemes =
  [
    Config.Baseline;
    wp16;
    Config.Way_memoization;
    Config.Way_prediction;
    Config.Filter_cache { l0_bytes = 512 };
  ]

(* A small three-process mix that still exercises contention. *)
let trio_specs =
  [ Mibench.tiny; Mibench.find "crc"; Mibench.find "adpcm_loop" ]

let trio () = Mp.Mix.of_specs trio_specs

let quantum q = { Mp.Machine.default_options with Mp.Machine.quantum_cycles = q }

let check_stats_equal what a b =
  Alcotest.(check bool) what true (Stats.equal a b)

(* --- the identity oracle -------------------------------------------- *)

let test_identity_oracle () =
  let prep = Runner.prepare Mibench.tiny in
  List.iter
    (fun scheme ->
      let config = Config.xscale scheme in
      let solo = Runner.run_scheme prep config in
      let mix = Mp.Mix.of_specs [ Mibench.tiny ] in
      let r = Mp.Machine.run ~config ~options:Mp.Machine.oracle_options mix in
      check_stats_equal
        (Config.scheme_name scheme ^ ": mp aggregate == Simulator.run")
        solo r.Mp.Machine.aggregate;
      Alcotest.(check int)
        (Config.scheme_name scheme ^ ": no switches")
        0 r.Mp.Machine.switches;
      Alcotest.(check int)
        (Config.scheme_name scheme ^ ": no kernel runs")
        0 r.Mp.Machine.kernel_runs)
    all_schemes

(* --- fast path vs reference loop under time-slicing ----------------- *)

let check_same_result what (a : Mp.Machine.result) (b : Mp.Machine.result) =
  check_stats_equal (what ^ ": aggregate") a.Mp.Machine.aggregate
    b.Mp.Machine.aggregate;
  check_stats_equal (what ^ ": system") a.Mp.Machine.system b.Mp.Machine.system;
  Alcotest.(check int)
    (what ^ ": same process count")
    (List.length a.Mp.Machine.processes)
    (List.length b.Mp.Machine.processes);
  List.iter2
    (fun (pa : Mp.Machine.process_result) (pb : Mp.Machine.process_result) ->
      Alcotest.(check string) (what ^ ": process order") pa.Mp.Machine.pr_name
        pb.Mp.Machine.pr_name;
      Alcotest.(check int)
        (what ^ ": " ^ pa.Mp.Machine.pr_name ^ " dispatches")
        pa.Mp.Machine.pr_dispatches pb.Mp.Machine.pr_dispatches;
      check_stats_equal
        (what ^ ": " ^ pa.Mp.Machine.pr_name ^ " stats")
        pa.Mp.Machine.pr_stats pb.Mp.Machine.pr_stats)
    a.Mp.Machine.processes b.Mp.Machine.processes;
  Alcotest.(check int) (what ^ ": switches") a.Mp.Machine.switches
    b.Mp.Machine.switches;
  Alcotest.(check int) (what ^ ": kernel runs") a.Mp.Machine.kernel_runs
    b.Mp.Machine.kernel_runs;
  Alcotest.(check int) (what ^ ": timer fires") a.Mp.Machine.timer_fires
    b.Mp.Machine.timer_fires

let test_fast_equals_reference () =
  List.iter
    (fun (scheme, q) ->
      let config = Config.xscale scheme in
      let options = quantum q in
      let fast = Mp.Machine.run ~config ~options (trio ()) in
      let reference =
        Mp.Machine.run ~reference_only:true ~config ~options (trio ())
      in
      check_same_result
        (Printf.sprintf "%s q=%d" (Config.scheme_name scheme) q)
        fast reference;
      Alcotest.(check (list string))
        (Printf.sprintf "%s q=%d: no divergences" (Config.scheme_name scheme) q)
        []
        (Mp.Machine.divergences ~fast ~reference);
      (* the comparison sees a different schedule *)
      Alcotest.(check bool)
        (Printf.sprintf "%s q=%d: another quantum diverges"
           (Config.scheme_name scheme) q)
        true
        (Mp.Machine.divergences ~fast
           ~reference:(Mp.Machine.run ~config ~options:(quantum (q + 1_000)) (trio ()))
        <> []);
      Alcotest.(check bool)
        (Printf.sprintf "%s q=%d: the machine actually switched"
           (Config.scheme_name scheme) q)
        true
        (fast.Mp.Machine.switches > 0))
    [ (Config.Baseline, 3_000); (wp16, 3_000); (wp16, 25_000) ]

let test_fast_equals_reference_drowsy () =
  let config =
    Config.with_drowsy
      (Config.with_leakage (Config.xscale wp16) true)
      (Some 2048)
  in
  List.iter
    (fun drowsy_policy ->
      let options =
        { (quantum 3_000) with Mp.Machine.drowsy_policy = drowsy_policy }
      in
      let fast = Mp.Machine.run ~config ~options (trio ()) in
      let reference =
        Mp.Machine.run ~reference_only:true ~config ~options (trio ())
      in
      check_same_result "drowsy mp" fast reference)
    [ Mp.Machine.Drowsy_shared; Mp.Machine.Drowsy_flush ]

(* --- exact integer attribution -------------------------------------- *)

let check_conservation what (r : Mp.Machine.result) =
  let agg = Stats.snapshot_ints r.Mp.Machine.aggregate in
  let sum = Array.make (Array.length agg) 0 in
  let add s =
    Array.iteri (fun i v -> sum.(i) <- sum.(i) + v) (Stats.snapshot_ints s)
  in
  List.iter (fun p -> add p.Mp.Machine.pr_stats) r.Mp.Machine.processes;
  add r.Mp.Machine.system;
  Alcotest.(check bool)
    (what ^ ": per-process + system == aggregate, integer by integer")
    true (sum = agg)

let test_attribution_conserves () =
  List.iter
    (fun (label, config, options) ->
      check_conservation label (Mp.Machine.run ~config ~options (trio ())))
    [
      ("baseline q=3k", Config.xscale Config.Baseline, quantum 3_000);
      ("wp16 q=3k", Config.xscale wp16, quantum 3_000);
      ( "wp16 drowsy flush",
        Config.with_drowsy
          (Config.with_leakage (Config.xscale wp16) true)
          (Some 2048),
        {
          (quantum 3_000) with
          Mp.Machine.drowsy_policy = Mp.Machine.Drowsy_flush;
          btb_policy = Mp.Machine.Btb_flush;
        } );
      ("wp16 infinite", Config.xscale wp16, quantum 0);
    ]

(* --- scheduler and switch-cost behaviour ---------------------------- *)

let test_infinite_quantum_runs_to_completion () =
  let r =
    Mp.Machine.run ~config:(Config.xscale wp16) ~options:(quantum 0) (trio ())
  in
  (* Each process runs to completion; only the hand-overs switch. *)
  Alcotest.(check int) "switches = processes - 1" 2 r.Mp.Machine.switches;
  Alcotest.(check int) "no timer fires" 0 r.Mp.Machine.timer_fires;
  List.iter
    (fun (p : Mp.Machine.process_result) ->
      Alcotest.(check int)
        (p.Mp.Machine.pr_name ^ " dispatched once")
        1 p.Mp.Machine.pr_dispatches)
    r.Mp.Machine.processes

let test_shorter_quantum_more_switches () =
  let run q =
    Mp.Machine.run ~config:(Config.xscale wp16) ~options:(quantum q) (trio ())
  in
  let short = run 2_000 and long = run 20_000 in
  Alcotest.(check bool) "2k quantum switches more than 20k" true
    (short.Mp.Machine.switches > long.Mp.Machine.switches);
  Alcotest.(check bool) "switch rate metric agrees" true
    (Mp.Machine.switches_per_million short
    > Mp.Machine.switches_per_million long)

let test_kernel_cost () =
  let run kernel =
    Mp.Machine.run ~config:(Config.xscale wp16)
      ~options:{ (quantum 3_000) with Mp.Machine.kernel }
      (trio ())
  in
  let with_k = run true and without_k = run false in
  Alcotest.(check bool) "kernel runs counted" true
    (with_k.Mp.Machine.kernel_runs > 0);
  Alcotest.(check int) "kernel off runs nothing" 0
    without_k.Mp.Machine.kernel_runs;
  Alcotest.(check bool) "kernel costs system cycles" true
    (with_k.Mp.Machine.system.Stats.cycles
    > without_k.Mp.Machine.system.Stats.cycles);
  (* The kernel fetches through the shared I-TLB, so it must be the
     system account that pays, not any user process. *)
  Alcotest.(check bool) "system account fetched instructions" true
    (with_k.Mp.Machine.system.Stats.retired_instrs > 0)

let switch_markers windows =
  List.concat_map
    (fun (w : Sampler.window) ->
      List.filter_map
        (function
          | Sampler.Switch { cycle; next } -> Some (cycle, next)
          | Sampler.Resize _ | Sampler.Flush _ -> None)
        w.Sampler.markers)
    windows

let probed_run ~window_cycles ~config ~options mix =
  let s = Sampler.create ~window_cycles () in
  let r = Mp.Machine.run ~probe:(Sampler.probe s) ~config ~options mix in
  (r, Sampler.finish s)

let test_priority_dispatch_order () =
  let mix =
    List.map2
      (fun p priority -> { p with Mp.Mix.priority = priority })
      (trio ()) [ 0; 2; 1 ]
  in
  let options = { (quantum 0) with Mp.Machine.sched = Mp.Machine.Priority } in
  let r, windows =
    probed_run ~window_cycles:8192 ~config:(Config.xscale wp16) ~options mix
  in
  Alcotest.(check int) "two hand-overs" 2 r.Mp.Machine.switches;
  (* Highest static priority first: index 1 (prio 2) is dispatched
     first without a switch marker, then 2 (prio 1), then 0 (prio 0). *)
  Alcotest.(check (list int)) "dispatch order follows priority" [ 2; 0 ]
    (List.map snd (switch_markers windows))

(* --- probe and sampler integration ---------------------------------- *)

let test_probe_leaves_result_identical () =
  let config = Config.xscale wp16 and options = quantum 3_000 in
  let fast = Mp.Machine.run ~config ~options (trio ()) in
  let probed, windows = probed_run ~window_cycles:1024 ~config ~options (trio ()) in
  check_same_result "probed mp" fast probed;
  (* Window sums reproduce the aggregate exactly. *)
  let retired =
    List.fold_left
      (fun acc (w : Sampler.window) -> acc + w.Sampler.retired)
      0 windows
  in
  Alcotest.(check int) "window retired sum"
    fast.Mp.Machine.aggregate.Stats.retired_instrs retired;
  let last = List.nth windows (List.length windows - 1) in
  Alcotest.(check int) "windows telescope to the machine's cycles"
    fast.Mp.Machine.aggregate.Stats.cycles last.Sampler.end_cycle;
  (* One switch marker per counted switch, in machine order. *)
  let markers = switch_markers windows in
  Alcotest.(check int) "one marker per switch" fast.Mp.Machine.switches
    (List.length markers);
  let cycles = List.map fst markers in
  Alcotest.(check bool) "marker cycles non-decreasing" true
    (List.sort compare cycles = cycles);
  List.iter
    (fun (_, next) ->
      Alcotest.(check bool) "marker names a mix index" true
        (next >= 0 && next < List.length (trio ())))
    markers

let test_switch_on_window_boundary () =
  let config = Config.xscale wp16 and options = quantum 3_000 in
  (* First pass: find the cycle of the first context switch (marker
     cycles are exact regardless of the window size). *)
  let _, coarse = probed_run ~window_cycles:4096 ~config ~options (trio ()) in
  let first_switch =
    match switch_markers coarse with
    | (c, _) :: _ -> c
    | [] -> Alcotest.fail "expected at least one switch"
  in
  Alcotest.(check bool) "switch happens after cycle 0" true (first_switch > 0);
  (* Second pass: make the sampler window end exactly on that cycle.
     The marker must land inside a window that spans it, the chain must
     stay dense and contiguous, and no switch may be lost or doubled. *)
  let r, windows =
    probed_run ~window_cycles:first_switch ~config ~options (trio ())
  in
  let rec check_chain prev_end index = function
    | [] -> ()
    | (w : Sampler.window) :: rest ->
        Alcotest.(check int) "dense indices" index w.Sampler.index;
        Alcotest.(check int) "contiguous windows" prev_end w.Sampler.start_cycle;
        List.iter
          (fun m ->
            let cycle = Sampler.marker_cycle m in
            Alcotest.(check bool) "marker within its window" true
              (w.Sampler.start_cycle <= cycle && cycle <= w.Sampler.end_cycle))
          w.Sampler.markers;
        check_chain w.Sampler.end_cycle (index + 1) rest
  in
  check_chain 0 0 windows;
  Alcotest.(check bool) "a window boundary falls on the switch cycle" true
    (List.exists
       (fun (w : Sampler.window) -> w.Sampler.end_cycle = first_switch)
       windows);
  Alcotest.(check int) "every switch still has exactly one marker"
    r.Mp.Machine.switches
    (List.length (switch_markers windows))

(* --- mixes ----------------------------------------------------------- *)

let test_mix_coverage () =
  let mix = trio () in
  Alcotest.(check (list bool)) "all placed" [ true; true; true ]
    (List.map (fun p -> p.Mp.Mix.placed) mix);
  Alcotest.(check (list bool)) "half places even indices"
    [ true; false; true ]
    (List.map
       (fun p -> p.Mp.Mix.placed)
       (Mp.Mix.apply_coverage Mp.Mix.Half_placed mix));
  Alcotest.(check (list bool)) "none strips every flag"
    [ false; false; false ]
    (List.map
       (fun p -> p.Mp.Mix.placed)
       (Mp.Mix.apply_coverage Mp.Mix.None_placed mix));
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Mp.Mix.coverage_name c ^ " round-trips")
        true
        (Mp.Mix.coverage_of_string (Mp.Mix.coverage_name c) = Ok c))
    [ Mp.Mix.All_placed; Mp.Mix.Half_placed; Mp.Mix.None_placed ]

let test_mix_validation () =
  (match Mp.Mix.validate [] with
  | Ok () -> Alcotest.fail "empty mix accepted"
  | Error msg ->
      Alcotest.(check bool) "diagnostic" true (String.length msg > 0));
  (match Mp.Mix.of_names [ "crc"; "no_such_benchmark" ] with
  | Ok _ -> Alcotest.fail "unknown benchmark accepted"
  | Error msg ->
      Alcotest.(check bool) "diagnostic not empty" true (String.length msg > 0));
  match Mp.Mix.of_names ~coverage:Mp.Mix.Half_placed [ "crc"; "sha" ] with
  | Error msg -> Alcotest.failf "of_names failed: %s" msg
  | Ok mix ->
      Alcotest.(check (list string)) "mix order follows names" [ "crc"; "sha" ]
        (List.map (fun p -> p.Mp.Mix.pname) mix);
      Alcotest.(check (list bool)) "coverage applied" [ true; false ]
        (List.map (fun p -> p.Mp.Mix.placed) mix)

(* --- the deterministic mix fuzz generator ---------------------------- *)

let test_progen_mix_deterministic () =
  let a = Mp.Mix.of_seed 42 and b = Mp.Mix.of_seed 42 in
  Alcotest.(check bool) "same seed, same mix" true (a = b);
  Alcotest.(check bool) "mix validates" true (Mp.Mix.validate a = Ok ());
  let n = List.length a in
  Alcotest.(check bool) "2..4 processes" true (n >= 2 && n <= 4);
  Alcotest.(check bool) "different seed, different mix" true
    (Mp.Mix.of_seed 43 <> a)

let test_progen_mix_shrinking () =
  let mix = Mp.Mix.of_seed 42 in
  let size = Progen.mix_size mix in
  let candidates = Progen.mix_shrink_candidates mix in
  Alcotest.(check bool) "candidates exist" true (candidates <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "every candidate strictly smaller" true
        (Progen.mix_size c < size))
    candidates;
  (* A predicate that only needs one process keeps shrinking until a
     single process remains. *)
  let minimal = Progen.minimize_mix ~failing:(fun m -> m <> []) mix in
  Alcotest.(check int) "fully minimised" 1 (List.length minimal);
  Alcotest.(check bool) "minimal case still fails" true (minimal <> [])

(* Seeds name stored results ("random:SEED" daemon keys) and fuzz
   cases, so the generators' draws are frozen: seeds 0..199 must keep
   the specs and mixes they have always produced.  The digests pin
   every field, floats bit for bit. *)
let render_spec (s : Wayplace.Workloads.Spec.t) =
  let open Wayplace.Workloads.Spec in
  Printf.sprintf "%s/%d/%d/%d/%d/%d/%d/%d/%d/%h/%h/%h/%h/%h/%d/%d/%d" s.name
    s.seed s.num_funcs s.blocks_per_func_min s.blocks_per_func_max
    s.instrs_per_block_min s.instrs_per_block_max s.max_loop_depth
    s.avg_loop_trips s.hot_func_fraction s.hot_call_bias s.if_taken_bias
    s.mem_ratio s.mac_ratio s.data_working_set_bytes s.trace_blocks_large
    s.trace_blocks_small

let render_mix (m : Mp.Mix.t) =
  String.concat "|"
    (List.map
       (fun (p : Mp.Mix.proc) ->
         Printf.sprintf "%s:%b:%d:%s" p.Mp.Mix.pname p.Mp.Mix.placed
           p.Mp.Mix.priority (render_spec p.Mp.Mix.spec))
       m)

let seeds_digest render =
  Digest.to_hex (Digest.string (String.concat ";" (List.init 200 render)))

let test_seeds_frozen () =
  Alcotest.(check string) "fuzz specs of seeds 0..199"
    "62f5d62e6f5c278d24d2d68d24b6ec3f"
    (seeds_digest (fun i -> render_spec (Progen.spec_of_seed i)));
  Alcotest.(check string) "random mixes of seeds 0..199"
    "84fee3815abe2dc1abf17cf89bf9505b"
    (seeds_digest (fun i -> render_mix (Mp.Mix.of_seed i)))

let test_progen_mix_runs () =
  (* The fuzz generator's output must actually run and conserve. *)
  let mix = Mp.Mix.of_seed 7 in
  let r =
    Mp.Machine.run ~config:(Config.xscale wp16) ~options:(quantum 5_000) mix
  in
  check_conservation "random mix" r;
  Alcotest.(check int) "every process accounted"
    (List.length mix)
    (List.length r.Mp.Machine.processes)

(* --- snapshot cache across quanta and address spaces ----------------- *)

module Snapshot_cache = Wayplace.Sim.Snapshot_cache
module Steady_state = Wayplace.Sim.Steady_state
module Fetch_engine = Wayplace.Sim.Fetch_engine

let test_shootdown_fingerprint_misses () =
  (* The boundary fingerprint covers the I-TLB, so an iteration
     converged with a warm TLB can never serve the boundary right
     after an address-space switch's shootdown: the post-flush
     fingerprint differs, and by key construction the lookup MISSES. *)
  let config = Config.xscale wp16 in
  let engine = Fetch_engine.create config ~code_base:Simulator.code_base in
  let stats = Wayplace.Sim.Stats.create () in
  List.iter
    (fun a -> ignore (Fetch_engine.fetch engine stats a))
    [
      Simulator.code_base;
      Simulator.code_base + 4096;
      Simulator.code_base + 8192;
    ];
  let fp_of () =
    let b = Buffer.create 64 in
    Fetch_engine.fingerprint engine ~now:stats.Wayplace.Sim.Stats.fetches
      ~add:(fun x -> Buffer.add_string b (string_of_int x ^ ","));
    Buffer.contents b
  in
  let warm = fp_of () in
  let cache = Snapshot_cache.create () in
  let to_words s =
    Array.of_list
      (List.filter_map int_of_string_opt (String.split_on_char ',' s))
  in
  let warm_fp = to_words warm in
  let key fp =
    Snapshot_cache.key ~scope:"mp-test" ~period:2 ~ids:[| 1; 2 |] ~fp
      ~fp_len:(Array.length fp)
  in
  Snapshot_cache.add cache ~key:(key warm_fp)
    {
      Snapshot_cache.e_fp = Array.copy warm_fp;
      e_ints = [||];
      e_awake = [||];
      e_fetches = 0;
      e_cycles = 1;
      e_instrs = 1;
    };
  Alcotest.(check bool)
    "warm fingerprint hits its own entry" true
    (Snapshot_cache.find cache ~key:(key warm_fp) ~fp:warm_fp
       ~fp_len:(Array.length warm_fp)
    <> None);
  Fetch_engine.flush_tlb engine;
  let cold = fp_of () in
  Alcotest.(check bool) "shootdown changes the fingerprint" false
    (String.equal warm cold);
  let cold_fp = to_words cold in
  Alcotest.(check bool)
    "post-shootdown boundary misses" true
    (Snapshot_cache.find cache ~key:(key cold_fp) ~fp:cold_fp
       ~fp_len:(Array.length cold_fp)
    = None)

let test_snapshot_cache_mp_identity () =
  (* One cache shared across every quantum of a time-sliced mix (and
     across whole runs, as the sweep and the daemon share it): results
     must stay bit-identical to the cache-less machine, cold and
     warm. *)
  let config = Config.xscale wp16 in
  let options = quantum 3_000 in
  let plain = Mp.Machine.run ~config ~options (trio ()) in
  let cache = Snapshot_cache.create () in
  let report = Steady_state.create_report () in
  let cached =
    Mp.Machine.run ~snapshot_cache:cache ~ff_report:report ~config ~options
      (trio ())
  in
  check_same_result "mp with snapshot cache" plain cached;
  Alcotest.(check bool)
    "converged regions published" true
    (report.Steady_state.cache_inserts > 0);
  let report2 = Steady_state.create_report () in
  let warm =
    Mp.Machine.run ~snapshot_cache:cache ~ff_report:report2 ~config ~options
      (trio ())
  in
  check_same_result "mp over a warm cache" plain warm;
  Alcotest.(check bool)
    "warm re-run hits" true
    (report2.Steady_state.cache_hits > 0)

let test_snapshot_cache_reentry_hits () =
  (* A single process re-dispatched by the timer keeps its address
     space — no shootdown — so a hot loop crossing the quantum
     boundary re-enters in the exact converged state and hits the
     entry published in an earlier quantum. *)
  let config = Config.xscale wp16 in
  let options = quantum 3_000 in
  let mix = Mp.Mix.of_specs [ Mibench.find "crc_loop" ] in
  let plain = Mp.Machine.run ~config ~options mix in
  let cache = Snapshot_cache.create () in
  let report = Steady_state.create_report () in
  let cached =
    Mp.Machine.run ~snapshot_cache:cache ~ff_report:report ~config ~options mix
  in
  check_same_result "single-process sliced loop" plain cached;
  Alcotest.(check bool)
    "cross-quantum re-entry hits" true
    (report.Steady_state.cache_hits > 0)

let () =
  Alcotest.run "mp"
    [
      ( "oracle",
        [
          Alcotest.test_case "identity vs Simulator.run" `Quick
            test_identity_oracle;
          Alcotest.test_case "fast path == reference loop" `Quick
            test_fast_equals_reference;
          Alcotest.test_case "fast path == reference loop (drowsy)" `Quick
            test_fast_equals_reference_drowsy;
          Alcotest.test_case "attribution conserves" `Quick
            test_attribution_conserves;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "infinite quantum" `Quick
            test_infinite_quantum_runs_to_completion;
          Alcotest.test_case "quantum vs switch rate" `Quick
            test_shorter_quantum_more_switches;
          Alcotest.test_case "kernel cost" `Quick test_kernel_cost;
          Alcotest.test_case "priority dispatch order" `Quick
            test_priority_dispatch_order;
        ] );
      ( "observability",
        [
          Alcotest.test_case "probe leaves result identical" `Quick
            test_probe_leaves_result_identical;
          Alcotest.test_case "switch on a window boundary" `Quick
            test_switch_on_window_boundary;
        ] );
      ( "snapshot-cache",
        [
          Alcotest.test_case "TLB shootdown forces a miss" `Quick
            test_shootdown_fingerprint_misses;
          Alcotest.test_case "bit-identity, cold and warm" `Quick
            test_snapshot_cache_mp_identity;
          Alcotest.test_case "cross-quantum re-entry hits" `Quick
            test_snapshot_cache_reentry_hits;
        ] );
      ( "mix",
        [
          Alcotest.test_case "coverage" `Quick test_mix_coverage;
          Alcotest.test_case "validation" `Quick test_mix_validation;
        ] );
      ( "progen",
        [
          Alcotest.test_case "deterministic" `Quick
            test_progen_mix_deterministic;
          Alcotest.test_case "shrinking" `Quick test_progen_mix_shrinking;
          Alcotest.test_case "random mix runs" `Quick test_progen_mix_runs;
          Alcotest.test_case "seeds keep their specs and mixes" `Quick
            test_seeds_frozen;
        ] );
    ]
