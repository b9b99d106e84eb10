(* suite_cold: every op is one cold [wayplace_cli run], in process — a
   fresh [Runner.prepare] of the seeded spec, then
   [Runner.compare_to_baseline] — over the 23 patternless MiBench
   programs x {way-placement 16 KB, way-memoization, way-prediction,
   filter 512 B} at the XScale geometry: 92 ops per pass.  The
   fast-forward pre-scan runs cold on every op and finds nothing, so
   replay takes the general path; a fast-forward gain must leave this
   workload unchanged. *)

open Common

let schemes = [ wayplace_kb 16; Config.Way_memoization; Config.Way_prediction; filter_512 ]

type cell = {
  spec : Spec.t;
  scheme : Config.scheme;
  expect_base : string;  (** oracle digest of the baseline run *)
  expect : string;  (** oracle digest of the scheme run *)
}

(* Expected digests with fast-forward off, before any timing.  A seeded
   sample of cells is also replayed through the per-instruction
   reference loop, which must agree bit for bit. *)
let oracle ~seed ~tally =
  let rng = Random.State.make [| seed; 0x5c01d |] in
  let specs = List.map (reseed ~seed) Mibench.all in
  let n = List.length specs * List.length schemes in
  let sample = List.init 3 (fun _ -> Random.State.int rng n) in
  let t0 = now () in
  let cells =
    List.concat
      (List.mapi
         (fun bi spec ->
           let prep = Runner.prepare spec in
           let base = Runner.run_scheme ~fastforward:false prep (Config.xscale Config.Baseline) in
           List.mapi
             (fun si scheme ->
               let config = Config.xscale scheme in
               let stats = Runner.run_scheme ~fastforward:false prep config in
               let expect = digest stats in
               if List.mem ((bi * List.length schemes) + si) sample then begin
                 let reference =
                   Simulator.run_reference ~config ~program:prep.Runner.program
                     ~layout:(Runner.layout_for prep config) ~trace:prep.Runner.trace_large
                 in
                 if digest reference <> expect then begin
                   tally.correct <- false;
                   log "ORACLE: %s/%s fast path differs from the reference loop"
                     spec.Spec.name (scheme_label scheme)
                 end
               end;
               { spec; scheme; expect_base = digest base; expect })
             schemes)
         specs)
  in
  log "suite_cold oracle: %d cells in %.1f s" (List.length cells) (now () -. t0);
  cells

type op_result = {
  op : float * float;  (** start and end of the whole op *)
  prepared : float;  (** end of its set-up, [Runner.prepare] *)
  instrs : int;
}

(* One untraced op; [None] when it failed (digest mismatch or exception). *)
let run_op tally cell =
  tally.attempted <- tally.attempted + 1;
  let t0 = now () in
  match
    let prep = Runner.prepare cell.spec in
    let t1 = now () in
    (t1, Runner.compare_to_baseline prep (Config.xscale cell.scheme))
  with
  | prepared, c ->
      let op = (t0, now ()) in
      if digest c.Runner.baseline = cell.expect_base && digest c.Runner.scheme = cell.expect
      then
        Some
          {
            op;
            prepared;
            instrs = c.Runner.baseline.Stats.retired_instrs + c.Runner.scheme.Stats.retired_instrs;
          }
      else begin
        tally.failed <- tally.failed + 1;
        log "FAILED %s/%s: stats digest differs from the oracle" cell.spec.Spec.name
          (scheme_label cell.scheme);
        None
      end
  | exception exn ->
      tally.failed <- tally.failed + 1;
      log "FAILED %s/%s: %s" cell.spec.Spec.name (scheme_label cell.scheme)
        (Printexc.to_string exn);
      None

(* Two passes give 184 ops: enough for a p90 with 18 samples beyond. *)
let min_passes = 2

(* A calibration sample after every op tracks the host's speed.  No
   collection between ops here: the suite's programs differ in size by
   seed, and with the heap emptied after every op the first pass's peak
   lands on one side or the other of a heap-growth step, so the peak RSS
   split into two clusters from seed to seed. *)
let run_pass tally cells =
  List.map
    (fun c ->
      let r = run_op tally c in
      calibrate ();
      (c, r))
    cells

(* The paper's reference figures describe the committed suite, so
   accuracy is measured there whatever the seed: mean normalised
   I-cache energy of way-placement (16 KB) and way-memoization over
   the 23 committed programs, against the paper's averages. *)
let paper_energy_err () =
  let norms =
    List.map
      (fun spec ->
        let prep = Runner.prepare spec in
        let run scheme = Runner.run_scheme prep (Config.xscale scheme) in
        let baseline = run Config.Baseline in
        ( norm_energy ~baseline (run (wayplace_kb 16)),
          norm_energy ~baseline (run Config.Way_memoization) ))
      Mibench.all
  in
  energy_err_pp ~wayplace:(List.map fst norms) ~waymemo:(List.map snd norms)

let run ~seed ~seconds =
  let tally = tally () in
  let cells = oracle ~seed ~tally in
  let energy_err = paper_energy_err () in
  let passes, rss = timed_passes ~min_passes ~seconds (fun () -> run_pass tally cells) in
  let ok = List.filter_map snd (List.concat passes) in
  let samples =
    List.concat_map
      (List.filter_map (fun (c, r) ->
           Option.map
             (fun r -> (c.spec.Spec.name ^ "/" ^ scheme_label c.scheme, 1000.0 *. nominal r.op))
             r))
      passes
  in
  let ms = List.map snd samples in
  let instrs = List.fold_left (fun a r -> a + r.instrs) 0 ok in
  let busy_s = List.fold_left ( +. ) 0.0 ms /. 1000.0 in
  log "suite_cold: %d passes" (List.length passes);
  ( tally,
    [
      m "setup_s" "s" (Q.median (List.map (fun r -> nominal (fst r.op, r.prepared)) ok));
      m "sim_instrs_per_s" "1/s" (float_of_int instrs /. busy_s);
    ]
    @ op_metrics ~what:"suite_cold"
        ~raw:(List.map (fun r -> 1000.0 *. (snd r.op -. fst r.op)) ok)
        ~support:(min_passes * List.length cells) samples
    @ [
        m "energy_err_pp" "pp" energy_err;
        m "peak_rss_mb" "MiB" rss;
      ] )

(* The traced op: the same work as [run_op], each call into a layer in
   its own span, fast-forward counters collected in [report]. *)
let traced_op tally spans report cell =
  tally.attempted <- tally.attempted + 1;
  match
    Spans.run spans "op" (fun () ->
        let prep = prepare_traced spans cell.spec in
        scan_traced spans prep;
        let replay scheme =
          Spans.run spans ("simulator.replay." ^ scheme_label scheme) (fun () ->
              Runner.run_scheme ~ff_report:report prep (Config.xscale scheme))
        in
        let base = replay Config.Baseline in
        (base, replay cell.scheme))
  with
  | base, s when digest base = cell.expect_base && digest s = cell.expect ->
      base.Stats.retired_instrs + s.Stats.retired_instrs
  | _ ->
      tally.failed <- tally.failed + 1;
      log "FAILED traced %s/%s: stats digest differs from the oracle" cell.spec.Spec.name
        (scheme_label cell.scheme);
      0
  | exception exn ->
      tally.failed <- tally.failed + 1;
      log "FAILED traced %s/%s: %s" cell.spec.Spec.name (scheme_label cell.scheme)
        (Printexc.to_string exn);
      0

let run_traced ~seed =
  let tally = tally () in
  let cells = oracle ~seed ~tally in
  Gc.compact ();
  let untraced_s =
    List.fold_left
      (fun a (_, r) -> match r with Some r -> a +. nominal r.op | None -> a)
      0.0 (run_pass tally cells)
  in
  let spans = Spans.create () in
  let report = Steady_state.create_report () in
  let instrs, traced_s =
    List.fold_left
      (fun (instrs, secs) c ->
        let t0 = now () in
        let n = traced_op tally spans report c in
        let op = (t0, now ()) in
        calibrate ();
        (instrs + n, secs +. nominal op))
      (0, 0.0) cells
  in
  write_trace spans ~workload:"suite_cold" ~seed;
  let layers = Spans.layers spans in
  ( tally,
    sim_layer_values layers ~report ~instrs
    @ [
        ("trace.overhead_frac", (traced_s /. untraced_s) -. 1.0);
        ("trace.covered_frac", covered_frac layers);
        ("host.calib_ms", Perfbench_lib.Hostspeed.mean_ms host);
      ] )
