(* Shared by the three workloads: seeded inputs, configurations, the
   stats digest, traced preparation, process and memory probes, and the
   result line. *)

module W = Wayplace
module Spec = W.Workloads.Spec
module Mibench = W.Workloads.Mibench
module Codegen = W.Workloads.Codegen
module Tracer = W.Workloads.Tracer
module Placer = W.Layout.Placer
module Binary_layout = W.Layout.Binary_layout
module Compiled_trace = W.Sim.Compiled_trace
module Runner = W.Sim.Runner
module Simulator = W.Sim.Simulator
module Steady_state = W.Sim.Steady_state
module Config = W.Sim.Config
module Stats = W.Sim.Stats
module Report = W.Sim.Report
module Q = Perfbench_lib.Quantiles
module Spans = Perfbench_lib.Spans

let now = Unix.gettimeofday

(* Calibration samples of this run; see [Perfbench_lib.Hostspeed]. *)
let host = Perfbench_lib.Hostspeed.create ()

(* An interval [(t0, t1)] in nominal-host seconds; meaningful once the
   run's calibration samples are all taken. *)
let nominal (t0, t1) = (t1 -. t0) *. Perfbench_lib.Hostspeed.factor host

let calibrate () = Perfbench_lib.Hostspeed.sample host

(* After every simulating op: a full collection, so no op pays for the
   garbage of the one before (as each command-line run starts from a
   fresh process) and the peak RSS does not depend on op order; then a
   calibration sample. *)
let between_ops () =
  Gc.full_major ();
  calibrate ()

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("[perfbench] " ^ s)) fmt

(* Seed 0 is the committed suite.  Seed k keeps every shape parameter
   and replaces only the generator seed, so the program family is the
   same and the concrete programs, profiles and traces are new. *)
let reseed ~seed (spec : Spec.t) =
  if seed = 0 then spec
  else
    {
      spec with
      Spec.seed =
        1 + (Hashtbl.hash (seed, spec.Spec.name, spec.Spec.seed) mod 1_000_000_000);
    }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The bit-identity token: MD5 of the marshalled stats, the same
   definition the serve protocol carries as [digest]. *)
let digest (s : Stats.t) = Digest.to_hex (Digest.string (Marshal.to_string s []))

let config scheme ~size_kb ~ways =
  Config.with_icache (Config.xscale scheme)
    (W.Cache.Geometry.make ~size_bytes:(size_kb * 1024) ~assoc:ways ~line_bytes:32)

let wayplace_kb kb = Config.Way_placement { area_bytes = kb * 1024 }
let filter_512 = Config.Filter_cache { l0_bytes = 512 }

let scheme_label = function
  | Config.Baseline -> "baseline"
  | Config.Way_placement _ -> "wayplace"
  | Config.Way_memoization -> "waymemo"
  | Config.Way_prediction -> "waypred"
  | Config.Filter_cache _ -> "filter"

let scheme_labels = [ "baseline"; "wayplace"; "waymemo"; "waypred"; "filter" ]

(* Paper suite averages of normalised I-cache energy (EXPERIMENTS.md,
   Figure 4a, both [recon]): way-placement ~52%, way-memoization ~68%. *)
let energy_err_pp ~wayplace ~waymemo =
  let mean l = 100.0 *. Runner.arithmetic_mean l in
  Float.abs (mean wayplace -. 52.0) +. Float.abs (mean waymemo -. 68.0)

let norm_energy ~baseline s =
  Stats.icache_energy_pj s /. Stats.icache_energy_pj baseline

(* --- traced preparation ---------------------------------------------- *)

(* [Runner.prepare], step by step through the same public functions, so
   each step gets its own span.  The record is built exactly as
   [Runner.prepare] builds it; the oracle (which calls [Runner.prepare]
   itself) checks every replay from it bit for bit. *)
let prepare_traced spans spec =
  let span name f = Spans.run spans name f in
  span "runner.prepare" (fun () ->
      let program = span "codegen.generate" (fun () -> Codegen.generate spec) in
      let graph = program.Codegen.graph in
      let profile_small =
        span "tracer.profile" (fun () -> Tracer.profile program Tracer.Small)
      in
      let trace_large = span "tracer.trace" (fun () -> Tracer.trace program Tracer.Large) in
      let base = Simulator.code_base in
      let original_order = Placer.original graph in
      let original_layout =
        span "binary_layout.of_order" (fun () ->
            Binary_layout.of_order graph ~base original_order)
      in
      let placed_order = span "placer.place" (fun () -> Placer.place graph profile_small) in
      let placed_layout =
        span "binary_layout.of_order" (fun () -> Binary_layout.of_order graph ~base placed_order)
      in
      let compile layout =
        span "compiled_trace.make" (fun () -> Compiled_trace.make ~program ~layout)
      in
      let compiled_original = compile original_layout in
      let compiled_placed = compile placed_layout in
      {
        Runner.program;
        profile_small;
        trace_large;
        original_layout;
        placed_layout;
        compiled_original;
        compiled_placed;
      })

(* A cold fast-forward pre-scan of a freshly traced program: the
   detector context the simulator builds, minus the replay hooks that
   [Steady_state.make] never calls.  The plan is memoised on the trace,
   so the replays that follow reuse it instead of scanning again; the
   stream-invariance pre-filter is the simulator's own formula, so the
   memoised plan is the one the simulator would have built. *)
let scan_ctx (prep : Runner.prepared) =
  let info = Compiled_trace.info prep.Runner.compiled_original in
  let blocks = prep.Runner.trace_large.Tracer.blocks in
  {
    Steady_state.policy = Steady_state.default_policy;
    report = Steady_state.create_report ();
    stats = Stats.create ();
    blocks;
    n_ids = Array.length info;
    n_instrs_of = (fun id -> info.(id).Compiled_trace.n_instrs);
    stream_invariant =
      (fun ~start ~period ->
        let seq = ref 0 and stride = ref 0 and rand = ref 0 in
        for j = start to start + period - 1 do
          let b = info.(blocks.(j)) in
          seq := !seq + b.Compiled_trace.seq_bytes;
          stride := !stride + b.Compiled_trace.stride_bytes;
          rand := !rand + b.Compiled_trace.n_random
        done;
        W.Sim.Data_stream.advance_invariant ~seq_bytes:!seq ~stride_bytes:!stride
          ~n_random:!rand);
    fingerprint = (fun ~start:_ ~period:_ ~add:_ -> ());
    exec = ignore;
    set_awake_recorder = ignore;
    drowsy_advance = (fun ~since:_ ~delta:_ -> ());
    drowsy_replay = (fun _ ~len:_ ~iters:_ -> ());
    cycles = ref 0;
    instrs = ref 0;
    cache = None;
    cache_scope = "";
    cycle_headroom = None;
  }

let scan_traced spans prep =
  Spans.run spans "steady_state.scan" (fun () -> ignore (Steady_state.make (scan_ctx prep)))

(* --- processes and memory ----------------------------------------------- *)

let cli = Filename.concat "_build" (Filename.concat "default" "bin/wayplace_cli.exe")

(* Start a child with stdin inherited and stdout/stderr discarded. *)
let spawn argv =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin null null in
  Unix.close null;
  pid

(* VmHWM (peak resident set) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

(* Restart the peak-RSS high-water mark, so a run's peak covers only
   what follows (the timed phase, not the oracle before it). *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc "5")

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Everything a run writes lives here, inside the checkout. *)
let work_dir = Filename.concat ".bench_build" "perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- run bookkeeping ------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable correct : bool }

let tally () = { attempted = 0; failed = 0; correct = true }

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let result_line tally metrics =
  let finite v = if Float.is_finite v then Report.Jfloat v else Report.Jnull in
  Report.json_to_string
    (Report.Jobj
       [
         ("correct", Report.Jbool (tally.correct && tally.failed = 0));
         ("attempted", Report.Jint tally.attempted);
         ("failed", Report.Jint tally.failed);
         ( "metrics",
           Report.Jobj
             (List.map
                (fun x ->
                  (x.name, Report.Jobj [ ("value", finite x.value); ("unit", Report.Jstring x.unit_) ]))
                metrics) );
       ])

(* Timing summaries of [(op, milliseconds)] samples: the median over
   distinct ops of each op's mean, and the tail of all samples at the
   highest fixed level with at least ten samples beyond it in the
   workload's guaranteed minimum sample of [support].  [raw], the same
   times before host-speed normalisation, is only logged. *)
let op_metrics ?raw ~what ~support samples =
  Option.iter
    (fun raw ->
      log "%s: unnormalised op p50 %.3f ms, mean calibration kernel %.3f ms" what (Q.median raw)
        (Perfbench_lib.Hostspeed.mean_ms host))
    raw;
  let ms = List.map snd samples in
  let tail =
    match Q.tail ~support ms with
    | Some t -> t
    | None -> failwith (Printf.sprintf "%s: %d ops are too few to name a tail" what (List.length ms))
  in
  let p50 = Q.median_of_means samples in
  log "%s: op p50 %.3f ms, %s %.3f ms over %d ops (%d beyond)" what p50
    (Q.level_name tail.Q.level) tail.Q.value tail.Q.samples tail.Q.beyond;
  [ m "op_p50_ms" "ms" p50; m "op_tail_ms" "ms" tail.Q.value ]

(* Whole passes only, so every op of a pass weighs the same in the op
   distribution: at least [min_passes], then more while the last pass
   still fits in the time budget.  Each pass starts from a collected
   heap, as each command-line run starts from a fresh process, so the
   garbage of one pass does not slow the next.  Returns the passes and
   the peak RSS over the first one: later passes add nothing to the
   working set, only to how far the heap has drifted. *)
let timed_passes ~min_passes ~seconds pass =
  let deadline = now () +. seconds in
  let rss = ref 0.0 in
  let rec go n acc =
    Gc.compact ();
    if n = 0 then reset_peak_rss ();
    let t0 = now () in
    let p = pass () in
    if n = 0 then rss := peak_rss_mb 0;
    let took = now () -. t0 in
    if n + 1 < min_passes || now () +. took <= deadline then go (n + 1) (p :: acc)
    else List.rev (p :: acc)
  in
  let passes = go 0 [] in
  (passes, !rss)

(* Per-layer values from a traced pass: busy time (self time, or total
   time for layers whose children are listed separately) and calls. *)
let layer_values layers ~self names =
  List.concat_map
    (fun (span_name, metric_name) ->
      let l = Spans.layer layers span_name in
      [
        (metric_name, if self then l.Spans.self_s else l.Spans.total_s);
        (span_name ^ ".calls", float_of_int l.Spans.calls);
      ])
    names

let leaf_layers =
  List.map
    (fun n -> (n, n ^ "_s"))
    [
      "codegen.generate";
      "tracer.profile";
      "tracer.trace";
      "placer.place";
      "binary_layout.of_order";
      "compiled_trace.make";
      "steady_state.scan";
    ]

(* Layer values every simulating traced pass reports: the preparation
   steps, the pre-scan, replay per scheme and the fast-forward counters
   of [report]; [instrs] is the instructions the replays retired. *)
let sim_layer_values layers ~(report : Steady_state.report) ~instrs =
  let replay =
    List.map (fun s -> ("simulator.replay." ^ s, "simulator.replay_s." ^ s)) scheme_labels
  in
  let replay_s =
    List.fold_left (fun acc (n, _) -> acc +. (Spans.layer layers n).Spans.self_s) 0.0 replay
  in
  let replay_calls =
    List.fold_left (fun acc (n, _) -> acc + (Spans.layer layers n).Spans.calls) 0 replay
  in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  layer_values layers ~self:true leaf_layers
  @ layer_values layers ~self:false [ ("runner.prepare", "runner.prepare_s") ]
  @ List.map (fun (n, metric) -> (metric, (Spans.layer layers n).Spans.self_s)) replay
  @ [
      ("simulator.replay.calls", float_of_int replay_calls);
      ("simulator.replay_ips", if replay_s > 0.0 then float_of_int instrs /. replay_s else 0.0);
      ("steady_state.regions", float_of_int report.Steady_state.regions);
      ("steady_state.converged_frac", ratio report.Steady_state.converged report.Steady_state.regions);
      ("steady_state.skipped_frac", ratio report.Steady_state.skipped_instrs instrs);
      ( "steady_state.bailouts",
        float_of_int
          (report.Steady_state.gate_rejected + report.Steady_state.vetoed
         + report.Steady_state.cost_gated + report.Steady_state.budget_exhausted) );
    ]

(* The share of traced op time spent in preparation, the pre-scan and
   replay: what the per-layer numbers account for. *)
let covered_frac layers =
  let self n = (Spans.layer layers n).Spans.self_s in
  let op = (Spans.layer layers "op").Spans.total_s in
  let covered =
    (Spans.layer layers "runner.prepare").Spans.total_s
    +. self "steady_state.scan"
    +. List.fold_left (fun acc s -> acc +. self ("simulator.replay." ^ s)) 0.0 scheme_labels
  in
  if op > 0.0 then covered /. op else 0.0

let write_trace spans ~workload ~seed =
  mkdir_p work_dir;
  let path = Filename.concat work_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  match Report.write_json ~path (Spans.to_chrome spans) with
  | Ok () -> log "trace written to %s" path
  | Error msg -> log "trace not written: %s" msg
