let code_base = 0x0001_0000

(* Fast-forward is on by default: it is bit-identical to full replay
   (the differ and fuzz corpus enforce this), so there is no
   fidelity-vs-speed trade.  The CLI's [--no-fastforward] escape hatch
   and the differential tests flip this; an [Atomic.t] because prepared
   benchmarks run from many domains. *)
let fastforward_default = Atomic.make true
let set_fastforward_default b = Atomic.set fastforward_default b
let default_fastforward () = Atomic.get fastforward_default

(* A resize schedule is checked once, before any replay: strictly
   ascending, non-negative block indices and positive areas, on a
   way-placement configuration.  Indices at or past the trace end never
   fire. *)
let validate_schedule (config : Config.t) schedule =
  let fail msg = invalid_arg ("Simulator.run: " ^ msg) in
  (match (schedule, config.scheme) with
  | [], _ | _, Config.Way_placement _ -> ()
  | _, (Config.Baseline | Config.Way_memoization | Config.Way_prediction
       | Config.Filter_cache _) ->
      fail "a resize schedule needs a way-placement config");
  ignore
    (List.fold_left
       (fun prev (at, area_bytes) ->
         if at < 0 then fail "negative resize block index";
         if area_bytes <= 0 then fail "resize area must be positive";
         if at <= prev then fail "resize schedule must be ascending";
         at)
       (-1) schedule)

let run_compiled ?probe ?(schedule = []) ?(reference_only = false)
    ?fastforward ?(ff_policy = Steady_state.default_policy) ?ff_report
    ?snapshot_cache ~(config : Config.t) ~(trace : Wp_workloads.Tracer.trace)
    compiled =
  validate_schedule config schedule;
  let stats = Stats.create () in
  let m = Replay.machine ?probe config ~code_base in
  (* The data side stays in the block loop only where something reads
     it block by block: the reference step's oracle, and a probe
     ([Dcache_access]/[Dtlb_miss] events, data stalls in [Retire]
     timestamps).  Otherwise it is the trace's memoised {!Dside} totals,
     added once below. *)
  let live_data = reference_only || Option.is_some probe in
  let s = Replay.stream ~live_data config ~trace ~stats compiled in
  let nblocks = Array.length s.Replay.blocks in
  let step =
    if reference_only then Replay.reference_step (Replay.core ?probe m) m s
    else Replay.fast_step m s
  in
  let run_blocks from upto =
    match probe with
    | Some p when not reference_only ->
        (* One cumulative [Retire] per block: sampler windows close on
           block boundaries.  (The reference step's core model ticks
           per instruction itself.) *)
        for k = from to upto - 1 do
          step k;
          p
            (Wp_obs.Probe.Retire
               { cycles = !(s.Replay.cycles); instrs = !(s.Replay.instrs) })
        done
    | Some _ | None ->
        for k = from to upto - 1 do
          step k
        done
  in
  (* The schedule splits the block loop into segments, with the resize
     between them; an empty schedule is the plain loop. *)
  let rec replay from = function
    | (at, area_bytes) :: rest when at < nblocks ->
        run_blocks from at;
        Fetch_engine.resize_area m.Replay.engine ~area_bytes;
        replay at rest
    | _ -> run_blocks from nblocks
  in
  (* Fast-forward engages only on plain fast runs: a skip emits no
     probe events and has no block bound for a resize point.  Its
     pre-scan decides engagement up front, so a patternless trace
     replays through the same bare loop as the no-FF path. *)
  let ff =
    (not reference_only) && Option.is_none probe && schedule = []
    && Option.value fastforward ~default:(Atomic.get fastforward_default)
  in
  (match
     if not ff then None
     else
       Some
         (Steady_state.make
            (Replay.ff_ctx ?report:ff_report ~policy:ff_policy
               ~cache:snapshot_cache config m s))
   with
  | Some drv when Steady_state.engaged drv -> Steady_state.drive drv
  | Some _ | None -> replay 0 schedule);
  if not live_data then
    s.Replay.cycles :=
      !(s.Replay.cycles)
      + Dside.add config stats
          (Dside.totals config ~blocks:s.Replay.blocks compiled);
  Replay.finish s;
  Stats.price stats (Config.prices config)
    ~leakage_pj:
      (Fetch_engine.leakage_pj m.Replay.engine stats ~cycles:stats.Stats.cycles);
  stats

let run_with_resizes ~schedule ~config ~program ~layout ~trace =
  run_compiled ~schedule ~config ~trace (Compiled_trace.make ~program ~layout)

let run_reference ~config ~program ~layout ~trace =
  run_compiled ~reference_only:true ~config ~trace
    (Compiled_trace.make ~program ~layout)

let run ~config ~program ~layout ~trace =
  run_compiled ~config ~trace (Compiled_trace.make ~program ~layout)
