(* loops_ff: the three loop-dominated programs, where fast-forward
   skips most instructions.  A pass prepares each seeded loop program
   once, runs 30 cells (3 programs x 5 schemes x {8 KB/8-way,
   32 KB/32-way}) through [Runner.run_scheme] with one shared snapshot
   cache, then 4 multiprogrammed runs of the 3-program mix (baseline
   and way-placement, 5k- and 50k-cycle quanta), where skips are capped
   at the quantum and converged iterations are reused across context
   switches.  Preparation is timed too: it is small next to replay
   here, the opposite of suite_cold. *)

open Common
module Mp = W.Mp
module Snapshot_cache = W.Sim.Snapshot_cache

let geometries = [ (8, 8); (32, 32) ]

(* Way-placement covers half the cache: 4 KB of 8 KB, the paper's
   16 KB of 32 KB. *)
let schemes ~size_kb =
  [
    Config.Baseline;
    wayplace_kb (size_kb / 2);
    Config.Way_memoization;
    Config.Way_prediction;
    filter_512;
  ]

type cell = { bench : int; config : Config.t; label : string; expect : string }

type mp_op = {
  mp_config : Config.t;
  options : Mp.Machine.options;
  mp_label : string;
  mp_expect : string;
}

let mp_ops_of ~fastforward specs =
  let mix = Mp.Mix.of_specs specs in
  List.concat_map
    (fun scheme ->
      List.map
        (fun quantum ->
          let mp_config = Config.xscale scheme in
          let options = { Mp.Machine.default_options with Mp.Machine.quantum_cycles = quantum } in
          let r = Mp.Machine.run ~fastforward ~config:mp_config ~options mix in
          {
            mp_config;
            options;
            mp_label = Printf.sprintf "mp/%s/q%d" (scheme_label scheme) quantum;
            mp_expect = digest r.Mp.Machine.aggregate;
          })
        [ 5_000; 50_000 ])
    [ Config.Baseline; wayplace_kb 16 ]

(* Expected digests with fast-forward off, before any timing, plus one
   seeded cell replayed through the reference loop.

   The programs are the committed loop fixtures at every seed.  How much
   fast-forward can skip depends on a program's exact generated
   structure: reseeding them moves single cells by 3x from seed to seed,
   which would swamp any change to the engine the workload exists to
   measure.  The seed orders the programs (and so the multiprogrammed
   mix, whose scheduling follows its order) and the cells. *)
let oracle ~seed ~tally =
  let t0 = now () in
  let rng = Random.State.make [| seed; 0x100f5 |] in
  let specs = shuffle rng Mibench.loops in
  let preps = List.map Runner.prepare specs in
  let cells =
    List.concat
      (List.mapi
         (fun bench prep ->
           List.concat_map
             (fun (size_kb, ways) ->
               List.map
                 (fun scheme ->
                   let config = config scheme ~size_kb ~ways in
                   let stats = Runner.run_scheme ~fastforward:false prep config in
                   {
                     bench;
                     config;
                     label =
                       Printf.sprintf "%s/%s/%dK%dw"
                         (List.nth specs bench).Spec.name (scheme_label scheme) size_kb ways;
                     expect = digest stats;
                   })
                 (schemes ~size_kb))
             geometries)
         preps)
    |> shuffle rng
  in
  let c = List.nth cells (Random.State.int rng (List.length cells)) in
  let prep = List.nth preps c.bench in
  let reference =
    Simulator.run_reference ~config:c.config ~program:prep.Runner.program
      ~layout:(Runner.layout_for prep c.config) ~trace:prep.Runner.trace_large
  in
  if digest reference <> c.expect then begin
    tally.correct <- false;
    log "ORACLE: %s fast path differs from the reference loop" c.label
  end;
  let mps = mp_ops_of ~fastforward:false specs in
  log "loops_ff oracle: %d cells + %d mp runs in %.1f s" (List.length cells) (List.length mps)
    (now () -. t0);
  (specs, cells, mps)

type pass = {
  prepare : (float * float) list;  (** interval of each program's preparation *)
  ops : (string * (float * float)) list;  (** each op and its interval *)
  cell_instrs : int;
  mp_instrs : int;
  mp_switches : int;
  norms : (string * float) list;  (** 32 KB/32-way cells: (scheme, normalised energy) *)
  cache_hit_ratio : float;  (** snapshot-cache hits over lookups *)
}

(* One pass.  With [spans], every call into a layer gets a span and
   preparation goes step by step; [report]/[mp_report] collect
   fast-forward counters. *)
let pass ~tally ?spans ?report ?mp_report (specs, cells, mps) =
  let span name f = match spans with Some s -> Spans.run s name f | None -> f () in
  let prepare spec =
    match spans with
    | None -> Runner.prepare spec
    | Some s ->
        let prep = prepare_traced s spec in
        scan_traced s prep;
        prep
  in
  let cache = Snapshot_cache.create () in
  let prepared =
    List.map
      (fun spec ->
        let t0 = now () in
        let prep = prepare spec in
        (prep, (t0, now ())))
      specs
  in
  let preps = Array.of_list (List.map fst prepared) in
  let prepare = List.map snd prepared in
  between_ops ();
  let ops = ref [] and stats_of = Hashtbl.create 32 in
  (* a calibration sample after every op tracks the host's speed *)
  let timed label expect f =
    tally.attempted <- tally.attempted + 1;
    let t = now () in
    let r = try Ok (f ()) with exn -> Error exn in
    let op = (t, now ()) in
    between_ops ();
    match r with
    | Ok (((stats : Stats.t), _) as r) ->
        ops := (label, op) :: !ops;
        if digest stats = expect then Some r
        else begin
          tally.failed <- tally.failed + 1;
          log "FAILED %s: stats digest differs from the oracle" label;
          None
        end
    | Error exn ->
        tally.failed <- tally.failed + 1;
        log "FAILED %s: %s" label (Printexc.to_string exn);
        None
  in
  let cell_instrs =
    List.fold_left
      (fun acc c ->
        match
          timed c.label c.expect (fun () ->
              ( span
                  ("simulator.replay." ^ scheme_label c.config.Config.scheme)
                  (fun () ->
                    Runner.run_scheme ?ff_report:report ~snapshot_cache:cache preps.(c.bench)
                      c.config),
                0 ))
        with
        | Some (stats, _) ->
            Hashtbl.replace stats_of c.label stats;
            acc + stats.Stats.retired_instrs
        | None -> acc)
      0 cells
  in
  let mix = Mp.Mix.of_specs specs in
  let mp_instrs, mp_switches =
    List.fold_left
      (fun (instrs, switches) o ->
        match
          timed o.mp_label o.mp_expect (fun () ->
              let r =
                span "machine.run" (fun () ->
                    Mp.Machine.run ?ff_report:mp_report ~snapshot_cache:cache
                      ~config:o.mp_config ~options:o.options mix)
              in
              (r.Mp.Machine.aggregate, r.Mp.Machine.switches))
        with
        | Some (stats, n) -> (instrs + stats.Stats.retired_instrs, switches + n)
        | None -> (instrs, switches))
      (0, 0) mps
  in
  let norms =
    List.filter_map
      (fun c ->
        let base_label = Printf.sprintf "%s/baseline/32K32w" (List.nth specs c.bench).Spec.name in
        match (Hashtbl.find_opt stats_of c.label, Hashtbl.find_opt stats_of base_label) with
        | Some s, Some b when c.config.Config.icache.W.Cache.Geometry.size_bytes = 32 * 1024 ->
            Some (scheme_label c.config.Config.scheme, norm_energy ~baseline:b s)
        | _ -> None)
      cells
  in
  let c = Snapshot_cache.counters cache in
  let cache_hit_ratio =
    if c.Snapshot_cache.lookups = 0 then 0.0
    else float_of_int c.Snapshot_cache.hits /. float_of_int c.Snapshot_cache.lookups
  in
  { prepare; ops = List.rev !ops; cell_instrs; mp_instrs; mp_switches; norms; cache_hit_ratio }

(* Three passes give 102 ops: enough for a p90 with 10 samples beyond. *)
let min_passes = 3

let run ~seed ~seconds =
  let tally = tally () in
  let ((_, cells, mps) as work) = oracle ~seed ~tally in
  let passes, rss = timed_passes ~min_passes ~seconds (fun () -> pass ~tally work) in
  let samples =
    List.concat_map (fun p -> List.map (fun (l, op) -> (l, 1000.0 *. nominal op)) p.ops) passes
  in
  let ms = List.map snd samples in
  let busy_s =
    List.fold_left (fun a p -> List.fold_left (fun a i -> a +. nominal i) a p.prepare) 0.0 passes
    +. (List.fold_left ( +. ) 0.0 ms /. 1000.0)
  in
  let instrs = List.fold_left (fun a p -> a + p.cell_instrs + p.mp_instrs) 0 passes in
  let first = List.hd passes in
  let norms label = List.filter_map (fun (l, v) -> if l = label then Some v else None) first.norms in
  log "loops_ff: %d passes" (List.length passes);
  ( tally,
    [
      m "setup_s" "s" (Q.median (List.concat_map (fun p -> List.map nominal p.prepare) passes));
      m "sim_instrs_per_s" "1/s" (float_of_int instrs /. busy_s);
    ]
    @ op_metrics ~what:"loops_ff"
        ~raw:(List.concat_map (fun p -> List.map (fun (_, (a, b)) -> 1000.0 *. (b -. a)) p.ops) passes)
        ~support:(min_passes * (List.length cells + List.length mps))
        samples
    @ [
        m "energy_err_pp" "pp" (energy_err_pp ~wayplace:(norms "wayplace") ~waymemo:(norms "waymemo"));
        m "peak_rss_mb" "MiB" rss;
      ] )

let run_traced ~seed =
  let tally = tally () in
  let work = oracle ~seed ~tally in
  Gc.compact ();
  (* a discarded pass first: the first pass after the oracle pays for
     growing the heap, which would count against the untraced side *)
  ignore (pass ~tally work);
  let busy p =
    List.fold_left (fun a (_, op) -> a +. nominal op)
      (List.fold_left (fun a i -> a +. nominal i) 0.0 p.prepare)
      p.ops
  in
  let untraced = pass ~tally work in
  let spans = Spans.create () in
  let report = Steady_state.create_report () in
  let mp_report = Steady_state.create_report () in
  let p = pass ~tally ~spans ~report ~mp_report work in
  write_trace spans ~workload:"loops_ff" ~seed;
  let layers = Spans.layers spans in
  let machine = Spans.layer layers "machine.run" in
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  ( tally,
    sim_layer_values layers ~report ~instrs:p.cell_instrs
    @ [
        ("snapshot_cache.hit_ratio", p.cache_hit_ratio);
        ("machine.run_s", machine.Spans.total_s);
        ("machine.run.calls", float_of_int machine.Spans.calls);
        ("machine.switches_per_million", 1e6 *. frac p.mp_switches p.mp_instrs);
        ("machine.ff_skipped_frac", frac mp_report.Steady_state.skipped_instrs p.mp_instrs);
        ("trace.overhead_frac", (busy p /. busy untraced) -. 1.0);
        ("host.calib_ms", Perfbench_lib.Hostspeed.mean_ms host);
      ] )
