(** Trace-driven whole-machine simulation.

    Replays a block trace through the fetch engine, the data-memory
    engine and the core cycle model, and returns the complete
    statistics (counters, cycles, and the energy priced from the
    counters).  The same trace
    replayed under different schemes/configurations yields directly
    comparable runs — the paper's "we always compare equally
    configured machines" protocol (Section 5).

    Every run is a driver over the block engine ({!Replay}).  Production
    runs — plain, fast-forwarded, probed and resized alike — take its
    block-batched {e fast step} ({!Compiled_trace},
    {!Fetch_engine.fetch_run}); a resize schedule splits the block loop
    into segments with the resize between them, and a probe gets one
    cumulative [Retire] per trace block.  Only [reference_only] takes the
    per-instruction {e reference step}, the oracle the fast step is
    checked against.  Both produce exactly equal {!Stats.t}
    ({!Stats.equal}: equal counters, hence bit-identical energy) — an
    invariant enforced by the differential fuzzer ([Check.Differ]) and
    [test_fastpath].

    The data side is the same for every scheme, so a run without a
    probe or [reference_only] does not replay it block by block: the
    trace's memoised {!Dside} totals (D accesses, D-cache and D-TLB
    misses, and the stall cycles they cost) are added once, before
    leakage and pricing.  Probed and reference runs keep the live data
    side, which is the oracle the totals are checked against. *)

val code_base : Wp_isa.Addr.t
(** Where program text is laid out (0x0001_0000). *)

val set_fastforward_default : bool -> unit
(** Whether fast-path runs engage the steady-state loop fast-forward
    ({!Steady_state}) when the caller does not pass [?fastforward].
    Defaults to [true]: fast-forward is bit-identical to full replay
    (enforced by the differential fuzzer), so there is no
    fidelity-vs-speed trade.  The CLI's [--no-fastforward] flag and the
    differential tests flip this; the setting is process-global and
    atomic. *)

val default_fastforward : unit -> bool
(** The current {!set_fastforward_default} setting — what a run with
    no explicit [fastforward] argument will do.  Other engines honour
    it too (e.g. [Mp.Machine]). *)

val run_compiled :
  ?probe:Wp_obs.Probe.t ->
  ?schedule:(int * int) list ->
  ?reference_only:bool ->
  ?fastforward:bool ->
  ?ff_policy:Steady_state.policy ->
  ?ff_report:Steady_state.report ->
  ?snapshot_cache:Snapshot_cache.t ->
  config:Config.t ->
  trace:Wp_workloads.Tracer.trace ->
  Compiled_trace.t ->
  Stats.t
(** The general entry point, replaying a precompiled trace (which
    carries its program and layout) on the fast step, or on the
    reference step with [reference_only]; probes and schedules work on
    either.  [schedule] lists strictly ascending
    [(trace_block_index, area_bytes)] resize points: the way-placement
    area is resized (caches flushed) just before that block runs;
    indices at or past the trace end never fire.  It is validated
    before any replay.

    Plain fast runs (no probe, no schedule) fast-forward converged hot
    loops ({!Steady_state}) when [fastforward] (default: the
    {!set_fastforward_default} setting) holds, bit-identically.  A
    probed or resized run never does: a skip emits no events and cannot
    stop at a resize point.  [ff_policy] tunes the detector, [ff_report]
    accumulates what it skipped, and [snapshot_cache] lets converged
    iterations be reused across regions, runs and sweep cells (keyed on
    the compiled trace's {!Compiled_trace.token} and the config digest,
    so reuse never crosses worlds).  A [probe] observes the run's full
    event stream ({!Wp_obs.Probe}; attach a {!Wp_obs.Sampler} for a
    timeline) and never changes the result; on the fast step it gets
    one [Retire] per trace block, so sampler windows close on block
    boundaries.
    @raise Invalid_argument if the config is invalid, or the schedule
    is non-empty on a non-way-placement config, is not strictly
    ascending, or holds a negative index or an area [<= 0]. *)

val run :
  config:Config.t ->
  program:Wp_workloads.Codegen.t ->
  layout:Wp_layout.Binary_layout.t ->
  trace:Wp_workloads.Tracer.trace ->
  Stats.t
(** {!run_compiled} on a freshly compiled trace; takes the fast path.
    Callers with a {!Runner.prepared} in hand should pass its cached
    compiled trace to {!run_compiled} instead.
    @raise Invalid_argument if the config is invalid. *)

val run_reference :
  config:Config.t ->
  program:Wp_workloads.Codegen.t ->
  layout:Wp_layout.Binary_layout.t ->
  trace:Wp_workloads.Tracer.trace ->
  Stats.t
(** {!run} forced through the per-instruction reference step, never the
    block-batched fast step.  The two produce exactly equal {!Stats.t}
    ({!Stats.equal}) — the invariant the differential fuzzer and
    [test_fastpath] enforce. *)

val run_with_resizes :
  schedule:(int * int) list ->
  config:Config.t ->
  program:Wp_workloads.Codegen.t ->
  layout:Wp_layout.Binary_layout.t ->
  trace:Wp_workloads.Tracer.trace ->
  Stats.t
(** Like {!run}, with an OS resize schedule (see {!run_compiled}):
    when the replay reaches a listed block the way-placement area is
    resized (paper Section 4.1, "even adjusting it during program
    execution"; the caches are flushed at each resize).  Runs on the
    fast step, without fast-forward.
    @raise Invalid_argument as {!run_compiled}. *)
