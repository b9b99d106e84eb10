(* Tests for the observability subsystem: the windowed sampler's
   conservation law (window sums reproduce the final Stats.t), window
   boundary behaviour, marker placement, and the structural validity of
   the CSV and Chrome trace-event exports. *)

module Probe = Wayplace.Obs.Probe
module Sampler = Wayplace.Obs.Sampler
module Config = Wayplace.Sim.Config
module Stats = Wayplace.Sim.Stats
module Runner = Wayplace.Sim.Runner
module Timeline = Wayplace.Sim.Timeline
module Report = Wayplace.Sim.Report
module Price = Wayplace.Energy.Price
module Mibench = Wayplace.Workloads.Mibench

let wp16 = Config.Way_placement { area_bytes = 16 * 1024 }

let tiny_prep = lazy (Runner.prepare Mibench.tiny)

let timeline ?schedule ?(window_cycles = 2048) config =
  Runner.run_timeline ?schedule ~window_cycles (Lazy.force tiny_prep) config

(* --- sampler basics --- *)

let test_create_validation () =
  Alcotest.(check bool) "window_cycles 0 rejected" true
    (match Sampler.create ~window_cycles:0 () with
    | (_ : Sampler.t) -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative rejected" true
    (match Sampler.create ~window_cycles:(-5) () with
    | (_ : Sampler.t) -> false
    | exception Invalid_argument _ -> true)

let test_finish_idempotent () =
  let s = Sampler.create () in
  let p = Sampler.probe s in
  p (Probe.Retire { cycles = 7; instrs = 3 });
  let a = Sampler.finish s in
  (* Late events are discarded, and finishing again returns the same
     windows. *)
  p (Probe.Retire { cycles = 100_000; instrs = 4 });
  let b = Sampler.finish s in
  Alcotest.(check int) "one window" 1 (List.length a);
  Alcotest.(check bool) "idempotent" true (a = b)

let test_window_boundaries () =
  let stats, windows = timeline (Config.xscale Config.Baseline) in
  Alcotest.(check bool) "several windows" true (List.length windows > 3);
  let rec check_chain prev_end index = function
    | [] -> ()
    | (w : Sampler.window) :: rest ->
        Alcotest.(check int) "indices are dense" index w.Sampler.index;
        Alcotest.(check int) "contiguous with predecessor" prev_end
          w.Sampler.start_cycle;
        Alcotest.(check bool) "window advances" true
          (w.Sampler.end_cycle >= w.Sampler.start_cycle);
        check_chain w.Sampler.end_cycle (index + 1) rest
  in
  check_chain 0 0 windows;
  let last = List.nth windows (List.length windows - 1) in
  Alcotest.(check int) "spans telescope to the run's cycles"
    stats.Stats.cycles last.Sampler.end_cycle

(* --- the conservation law --- *)

(* The Stats.t field each sampler counter mirrors ([None] for cache
   internals the stats never count). *)
let counter_expected (s : Stats.t) = function
  | Sampler.Counter.Same_line_fetches -> Some s.Stats.same_line_fetches
  | Sampler.Counter.Wp_fetches -> Some s.Stats.wp_fetches
  | Sampler.Counter.Full_fetches -> Some s.Stats.full_fetches
  | Sampler.Counter.Link_follows -> Some s.Stats.link_follows
  | Sampler.Counter.Icache_hits -> Some s.Stats.icache_hits
  | Sampler.Counter.Icache_misses -> Some s.Stats.icache_misses
  | Sampler.Counter.L0_hits -> Some s.Stats.l0_hits
  | Sampler.Counter.L0_misses -> Some s.Stats.l0_misses
  | Sampler.Counter.Tag_comparisons -> Some s.Stats.tag_comparisons
  | Sampler.Counter.Tag_ways -> Some s.Stats.tag_ways
  | Sampler.Counter.Data_reads -> Some s.Stats.data_reads
  | Sampler.Counter.Hint_correct_wp -> Some s.Stats.hint_correct_wp
  | Sampler.Counter.Hint_correct_normal -> Some s.Stats.hint_correct_normal
  | Sampler.Counter.Hint_missed_saving -> Some s.Stats.hint_missed_saving
  | Sampler.Counter.Hint_reaccess -> Some s.Stats.hint_reaccess
  | Sampler.Counter.Waypred_correct -> Some s.Stats.waypred_correct
  | Sampler.Counter.Waypred_wrong -> Some s.Stats.waypred_wrong
  | Sampler.Counter.Drowsy_wakes -> Some s.Stats.drowsy_wakes
  | Sampler.Counter.Link_writes -> Some s.Stats.link_writes
  | Sampler.Counter.Links_invalidated -> Some s.Stats.links_invalidated
  | Sampler.Counter.Itlb_misses -> Some s.Stats.itlb_misses
  | Sampler.Counter.Dtlb_misses -> Some s.Stats.dtlb_misses
  | Sampler.Counter.Dcache_accesses -> Some s.Stats.dcache_accesses
  | Sampler.Counter.Dcache_misses -> Some s.Stats.dcache_misses
  | Sampler.Counter.Line_fills | Sampler.Counter.Evictions -> None

let check_conservation name config (stats : Stats.t) windows =
  let sums = Sampler.sum_counters windows in
  List.iter
    (fun c ->
      match counter_expected stats c with
      | None -> ()
      | Some expected ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s window sum" name (Sampler.Counter.name c))
            expected
            sums.(Sampler.Counter.index c))
    Sampler.Counter.all;
  let retired =
    List.fold_left
      (fun acc (w : Sampler.window) -> acc + w.Sampler.retired)
      0 windows
  in
  Alcotest.(check int)
    (name ^ ": retired window sum")
    stats.Stats.retired_instrs retired;
  (* The windows' summed counts, priced with the run's table, give the
     run's buckets bit for bit... *)
  let prices = Config.prices config in
  let cum = Timeline.total_energy prices windows in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: cumulative %s bit-identical" name
           (Price.bucket_name b))
        true
        (Float.equal (Stats.energy_pj stats b) cum.(Price.bucket_index b)))
    Price.buckets;
  (* ...while summing the windows' own priced energy reassociates the
     additions, so that reproduction is only tolerance-exact. *)
  let deltas = Array.make (List.length Price.buckets) 0.0 in
  List.iter
    (fun w ->
      Array.iteri
        (fun i e -> deltas.(i) <- deltas.(i) +. e)
        (Timeline.window_energy prices w))
    windows;
  List.iter
    (fun b ->
      let expected = Stats.energy_pj stats b in
      let actual = deltas.(Price.bucket_index b) in
      let tol = 1e-9 *. Float.max 1.0 (Float.abs expected) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: window-delta %s sum" name (Price.bucket_name b))
        true
        (Float.abs (actual -. expected) <= tol))
    Price.buckets

let test_conservation_baseline () =
  let config = Config.xscale Config.Baseline in
  let stats, windows = timeline config in
  check_conservation "baseline" config stats windows

let test_conservation_wayplace () =
  let config = Config.xscale wp16 in
  let stats, windows = timeline config in
  check_conservation "wayplace" config stats windows

let test_conservation_drowsy () =
  let config =
    Config.with_drowsy
      (Config.with_leakage (Config.xscale Config.Baseline) true)
      (Some 2000)
  in
  let stats, windows = timeline config in
  Alcotest.(check bool) "drowsy wakes observed" true
    (stats.Stats.drowsy_wakes > 0);
  check_conservation "drowsy" config stats windows

let test_probe_leaves_stats_identical () =
  let prep = Lazy.force tiny_prep in
  List.iter
    (fun scheme ->
      let config = Config.xscale scheme in
      let plain = Runner.run_scheme prep config in
      let probed, _windows = Runner.run_timeline prep config in
      Alcotest.(check bool)
        (Config.scheme_name scheme ^ ": stats bit-identical under a probe")
        true
        (Stats.equal plain probed))
    [
      Config.Baseline;
      wp16;
      Config.Way_memoization;
      Config.Way_prediction;
      Config.Filter_cache { l0_bytes = 512 };
    ]

(* --- resize markers --- *)

let test_resize_markers_in_right_windows () =
  let prep = Lazy.force tiny_prep in
  let n =
    Array.length
      prep.Runner.trace_large.Wayplace.Workloads.Tracer.blocks
  in
  let schedule = [ (n / 4, 2048); (n / 2, 8192) ] in
  let _stats, windows =
    Runner.run_timeline ~schedule ~window_cycles:2048 prep (Config.xscale wp16)
  in
  (* Every marker must lie within the cycle span of the window that
     recorded it. *)
  List.iter
    (fun (w : Sampler.window) ->
      List.iter
        (fun m ->
          let cycle = Sampler.marker_cycle m in
          Alcotest.(check bool) "marker within its window" true
            (w.Sampler.start_cycle <= cycle && cycle <= w.Sampler.end_cycle))
        w.Sampler.markers)
    windows;
  let all_markers = List.concat_map (fun w -> w.Sampler.markers) windows in
  let resizes =
    List.filter_map
      (function
        | Sampler.Resize { area_bytes; _ } -> Some area_bytes
        | Sampler.Flush _ | Sampler.Switch _ -> None)
      all_markers
  in
  Alcotest.(check (list int)) "one resize marker per schedule entry, in order"
    (List.map snd schedule) resizes;
  let flushes =
    List.length
      (List.filter
         (function
           | Sampler.Flush _ -> true
           | Sampler.Resize _ | Sampler.Switch _ -> false)
         all_markers)
  in
  Alcotest.(check int) "each resize flushes" (List.length schedule) flushes;
  (* Marker cycles are non-decreasing across the whole run. *)
  let cycles = List.map Sampler.marker_cycle all_markers in
  Alcotest.(check bool) "marker cycles ordered" true
    (List.sort compare cycles = cycles)

(* --- CSV export --- *)

let test_timeline_csv_shape () =
  let config = Config.xscale wp16 in
  let _stats, windows = timeline config in
  let rows = Timeline.csv_rows ~config windows in
  Alcotest.(check int) "one row per window" (List.length windows)
    (List.length rows);
  let width = List.length Timeline.csv_header in
  List.iter
    (fun row ->
      Alcotest.(check int) "row width matches header" width (List.length row))
    rows;
  (* The window column counts up from 0. *)
  List.iteri
    (fun i row -> Alcotest.(check string) "window id" (string_of_int i) (List.hd row))
    rows

(* --- Chrome trace-event export --- *)

(* Hand-rolled scans over the rendered JSON: count key occurrences and
   collect every "ts" value in stream order. *)
let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let count = ref 0 in
  for i = 0 to nh - nn do
    if String.sub hay i nn = needle then incr count
  done;
  !count

let ts_values s =
  let key = "\"ts\":" in
  let klen = String.length key in
  let n = String.length s in
  let rec find i acc =
    if i + klen > n then List.rev acc
    else if String.sub s i klen = key then begin
      let j = ref (i + klen) in
      while
        !j < n && (match s.[!j] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr j
      done;
      find !j (int_of_string (String.sub s (i + klen) (!j - i - klen)) :: acc)
    end
    else find (i + 1) acc
  in
  find 0 []

let test_chrome_trace_structure () =
  let prep = Lazy.force tiny_prep in
  let n =
    Array.length prep.Runner.trace_large.Wayplace.Workloads.Tracer.blocks
  in
  let _stats, windows =
    Runner.run_timeline
      ~schedule:[ (n / 2, 2048) ]
      ~window_cycles:2048 prep (Config.xscale wp16)
  in
  let s =
    Report.json_to_string
      (Timeline.chrome_trace ~config:(Config.xscale wp16) windows)
  in
  Alcotest.(check bool) "top-level traceEvents array" true
    (count_substring s "\"traceEvents\":[" = 1);
  Alcotest.(check bool) "displayTimeUnit present" true
    (count_substring s "\"displayTimeUnit\":\"ns\"" = 1);
  (* Every event carries the required ph/ts/pid triple. *)
  let events = count_substring s "\"ph\":" in
  Alcotest.(check bool) "events present" true (events > 0);
  Alcotest.(check int) "every event has a ts" events (count_substring s "\"ts\":");
  Alcotest.(check int) "every event has a pid" events
    (count_substring s "\"pid\":");
  Alcotest.(check int) "exactly one metadata event" 1
    (count_substring s "\"ph\":\"M\"");
  Alcotest.(check bool) "counter events present" true
    (count_substring s "\"ph\":\"C\"" > 0);
  Alcotest.(check bool) "instant event for the resize" true
    (count_substring s "\"ph\":\"i\"" >= 1);
  Alcotest.(check bool) "resize payload present" true
    (count_substring s "\"area_bytes\":2048" = 1);
  (* Timestamps are non-decreasing in stream order (Perfetto accepts
     unsorted input, chrome://tracing is happier sorted). *)
  let ts = ts_values s in
  Alcotest.(check int) "one ts per event" events (List.length ts);
  Alcotest.(check bool) "timestamps monotone" true
    (List.sort compare ts = ts)

let test_chrome_trace_empty () =
  let s =
    Report.json_to_string
      (Timeline.chrome_trace ~config:(Config.xscale wp16) [])
  in
  (* Still a valid trace: the metadata event alone. *)
  Alcotest.(check int) "only the metadata event" 1
    (count_substring s "\"ph\":")

let () =
  Alcotest.run "obs"
    [
      ( "sampler",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "finish idempotent" `Quick test_finish_idempotent;
          Alcotest.test_case "window boundaries" `Quick test_window_boundaries;
          Alcotest.test_case "conservation: baseline" `Quick
            test_conservation_baseline;
          Alcotest.test_case "conservation: way-placement" `Quick
            test_conservation_wayplace;
          Alcotest.test_case "conservation: drowsy" `Quick
            test_conservation_drowsy;
          Alcotest.test_case "probe leaves stats identical" `Quick
            test_probe_leaves_stats_identical;
          Alcotest.test_case "resize markers" `Quick
            test_resize_markers_in_right_windows;
        ] );
      ( "export",
        [
          Alcotest.test_case "CSV shape" `Quick test_timeline_csv_shape;
          Alcotest.test_case "Chrome trace structure" `Quick
            test_chrome_trace_structure;
          Alcotest.test_case "Chrome trace of no windows" `Quick
            test_chrome_trace_empty;
        ] );
    ]
