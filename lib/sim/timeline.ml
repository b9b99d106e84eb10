module Sampler = Wp_obs.Sampler
module Price = Wp_energy.Price

(* --- pricing windows -------------------------------------------------- *)

(* A window's counts, taken from the sampler counters that mirror the
   [Stats.t] fields a run is priced from, so pricing the summed counts
   of every window reproduces the run's buckets exactly. *)
let counts (c : int array) ~cycles =
  let get k = c.(Sampler.Counter.index k) in
  let same_line_fetches = get Same_line_fetches in
  {
    Price.fetches =
      same_line_fetches + get Wp_fetches + get Full_fetches + get Link_follows;
    same_line_fetches;
    tag_ways = get Tag_ways;
    data_reads = get Data_reads;
    icache_misses = get Icache_misses;
    link_writes = get Link_writes;
    l0_probes = get L0_hits + get L0_misses;
    drowsy_wakes = get Drowsy_wakes;
    itlb_misses = get Itlb_misses;
    dtlb_misses = get Dtlb_misses;
    dcache_accesses = get Dcache_accesses;
    dcache_misses = get Dcache_misses;
    cycles;
  }

let window_energy prices (w : Sampler.window) =
  Price.price prices
    (counts w.Sampler.counters ~cycles:(Sampler.cycles w))
    ~leakage_pj:w.Sampler.leakage_pj

let total_energy prices windows =
  let cycles =
    List.fold_left (fun acc w -> acc + Sampler.cycles w) 0 windows
  in
  let leakage_pj =
    List.fold_left
      (fun acc (w : Sampler.window) -> acc +. w.Sampler.leakage_pj)
      0.0 windows
  in
  Price.price prices
    (counts (Sampler.sum_counters windows) ~cycles)
    ~leakage_pj

(* --- RFC-4180 timeline CSV ----------------------------------------- *)

let csv_header =
  [ "window"; "start_cycle"; "end_cycle"; "cycles"; "retired"; "ipc"; "fetches" ]
  @ List.map Sampler.Counter.name Sampler.Counter.all
  @ [ "ways_enabled" ]
  @ List.map (fun b -> Price.bucket_name b ^ "_pj") Price.buckets
  @ [ "total_pj"; "markers" ]

let ways_field (w : Sampler.window) =
  w.Sampler.ways_hist
  |> List.map (fun (ways, n) -> Printf.sprintf "%d:%d" ways n)
  |> String.concat " "

let markers_field (w : Sampler.window) =
  w.Sampler.markers
  |> List.map (function
       | Sampler.Resize { cycle; area_bytes } ->
           Printf.sprintf "resize@%d=%dB" cycle area_bytes
       | Sampler.Flush { cycle } -> Printf.sprintf "flush@%d" cycle
       | Sampler.Switch { cycle; next } ->
           Printf.sprintf "switch@%d=p%d" cycle next)
  |> String.concat " "

let csv_row prices (w : Sampler.window) =
  let energy = window_energy prices w in
  let total_pj = Array.fold_left ( +. ) 0.0 energy in
  [
    string_of_int w.Sampler.index;
    string_of_int w.Sampler.start_cycle;
    string_of_int w.Sampler.end_cycle;
    string_of_int (Sampler.cycles w);
    string_of_int w.Sampler.retired;
    Printf.sprintf "%.4f" (Sampler.ipc w);
    string_of_int (Sampler.fetches w);
  ]
  @ List.map
      (fun c -> string_of_int (Sampler.get w c))
      Sampler.Counter.all
  @ [ ways_field w ]
  @ List.map
      (fun b -> Printf.sprintf "%.6f" energy.(Price.bucket_index b))
      Price.buckets
  @ [ Printf.sprintf "%.6f" total_pj; markers_field w ]

let csv_rows ~config windows = List.map (csv_row (Config.prices config)) windows

let write_csv ~config ~path windows =
  Report.write_csv ~path ~header:csv_header ~rows:(csv_rows ~config windows)

(* --- Chrome trace-event JSON (chrome://tracing, Perfetto) ---------- *)

let pid = 1
let tid = 1

let counter_event ~name ~ts value =
  Report.Jobj
    [
      ("name", Report.Jstring name);
      ("ph", Report.Jstring "C");
      ("ts", Report.Jint ts);
      ("pid", Report.Jint pid);
      ("args", Report.Jobj [ ("value", value) ]);
    ]

let instant_event ~name ~ts args =
  Report.Jobj
    [
      ("name", Report.Jstring name);
      ("ph", Report.Jstring "i");
      ("ts", Report.Jint ts);
      ("pid", Report.Jint pid);
      ("tid", Report.Jint tid);
      ("s", Report.Jstring "g");
      ("args", Report.Jobj args);
    ]

let metadata_event ~name arg =
  Report.Jobj
    [
      ("name", Report.Jstring name);
      ("ph", Report.Jstring "M");
      ("ts", Report.Jint 0);
      ("pid", Report.Jint pid);
      ("tid", Report.Jint tid);
      ("args", Report.Jobj [ ("name", Report.Jstring arg) ]);
    ]

let window_events prices (w : Sampler.window) =
  let ts = w.Sampler.start_cycle in
  let energy = window_energy prices w in
  let counters =
    List.map
      (fun b ->
        counter_event
          ~name:(Price.bucket_name b ^ "_pj")
          ~ts
          (Report.Jfloat energy.(Price.bucket_index b)))
      Price.buckets
    @ [
        counter_event ~name:"ipc" ~ts (Report.Jfloat (Sampler.ipc w));
        counter_event ~name:"fetches" ~ts
          (Report.Jint (Sampler.fetches w));
        counter_event ~name:"icache_misses" ~ts
          (Report.Jint (Sampler.get w Sampler.Counter.Icache_misses));
      ]
  in
  (* Markers are chronological and bounded by the window's cycle span,
     so appending them keeps the whole stream's timestamps monotone. *)
  let markers =
    List.map
      (function
        | Sampler.Resize { cycle; area_bytes } ->
            instant_event ~name:"resize" ~ts:cycle
              [ ("area_bytes", Report.Jint area_bytes) ]
        | Sampler.Flush { cycle } -> instant_event ~name:"flush" ~ts:cycle []
        | Sampler.Switch { cycle; next } ->
            instant_event ~name:"context_switch" ~ts:cycle
              [ ("next", Report.Jint next) ])
      w.Sampler.markers
  in
  counters @ markers

let chrome_trace ?(process_name = "wayplace-sim") ~config windows =
  let prices = Config.prices config in
  let events =
    (metadata_event ~name:"process_name" process_name
    :: List.concat_map (window_events prices) windows)
  in
  Report.Jobj
    [
      ("traceEvents", Report.Jlist events);
      ("displayTimeUnit", Report.Jstring "ns");
    ]

let write_chrome ?process_name ~config ~path windows =
  Report.write_json ~path (chrome_trace ?process_name ~config windows)
