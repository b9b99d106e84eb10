(** Steady-state loop fast-forward for the block-batched fast path.

    Hot loops reach cache steady state within a few iterations (the
    dominant-block observation).  During replay the engine detects
    periodic trace regions, records one full iteration's effects once
    the canonical machine-state fingerprint is equal at two consecutive
    iteration boundaries, and then multiplies those effects by the
    remaining repetition count instead of replaying them — arithmetic
    instead of simulation, while staying bit-identical to the reference
    loop: every effect, energy events included, is an integer count
    that scales as a sum, and energy is priced from the counts only
    when the run finalises.

    {b Detection is a memoised static pre-scan}: which trace stretches
    are periodic is a pure function of the block array, so the
    delta-gated detector — a rolling anchor-delta over each block's
    recurrence distance, escalating to exact O(period) segment
    verification only when the distance holds steady — runs once over
    the trace, off the replay path, and its region list is memoised
    per (trace, policy).  Every scheme, repeat sample and sweep cell
    replaying the same trace shares one scan; a patternless trace
    yields an empty list and {!engaged} lets the caller bypass the
    driver entirely, so detection costs such a run nothing per block.
    The scan reads only the block array and instruction counts; each
    driver applies its own stream-variance veto ([ctx.stream_invariant])
    to the shared plan in {!make}, so no caller's veto decides another
    caller's plan.  The scan is a pure filter: convergence is still
    established exclusively by fingerprint equality at run time, so a
    scan miss costs speed, never correctness.

    {b Converged iterations are reusable}: with a {!Snapshot_cache}
    attached, every boundary snapshot is also a cache lookup, and a
    converged region publishes its (fingerprint, pattern, effects)
    triple.  Re-entering the same pattern in the same observable state
    — a later region of this run, the same hot loop after an
    [Mp.Machine] context switch, another sweep cell replaying the same
    compiled trace under the same configuration — skips from its first
    boundary without re-recording.

    Bail-out conditions: the engine runs only on plain fast-step runs —
    probed and resized runs take the fast step ({!Replay}) without it,
    since a skip emits no probe events and has no block bound at which
    a resize could fire.  Within a plain run, a region is simply replayed
    normally when fingerprints never match (e.g. drowsy timers that
    break iteration symmetry, or, where the data side is live, RNG-
    drawing data accesses), when the driver vetoes the pattern as
    stream-variant (only [Mp.Machine] processes, whose data side is
    live, carry a veto; single-process runs add their data side from
    {!Dside} at finalisation and veto nothing), when the region is too
    small to repay its own fingerprint, or when the attempt/snapshot
    budgets run out.  {!report} counts each reason. *)

type policy = {
  max_period_blocks : int;  (** longest loop body considered, in trace blocks *)
  min_skip_instrs : int;
      (** minimum instructions a region could skip to be worth an attempt *)
  max_attempts : int;  (** recorded iterations per region before giving up *)
  snapshot_budget : int;
      (** fingerprint snapshots per run before detection shuts off —
          bounds detector overhead on pathological traces *)
}

val default_policy : policy

type report = {
  mutable regions : int;  (** periodic regions attempted *)
  mutable recorded_iterations : int;  (** iterations executed under recording *)
  mutable converged : int;  (** regions that reached a converged iteration *)
  mutable skipped_iterations : int;
  mutable skipped_instrs : int;  (** dynamic instructions fast-forwarded *)
  mutable gate_rejected : int;
      (** scan-time gate escalations whose exact segment verification
          failed — a stable recurrence distance that was not actually
          periodic *)
  mutable vetoed : int;
      (** planned regions the driver vetoed as stream-variant *)
  mutable cost_gated : int;
      (** verified regions skipped as too small to repay their own
          fingerprint (and attempts abandoned on the same grounds) *)
  mutable budget_exhausted : int;
      (** attempts abandoned on the attempt/snapshot budgets or
          because the region ran out before convergence *)
  mutable cache_hits : int;  (** regions served from the snapshot cache *)
  mutable cache_inserts : int;  (** converged iterations published to it *)
}

val create_report : unit -> report

type ctx = {
  policy : policy;
  report : report;
  stats : Stats.t;
  blocks : int array;  (** the block trace being replayed *)
  n_ids : int;  (** number of distinct block ids (array bound) *)
  n_instrs_of : int -> int;  (** instructions in a block, by id *)
  stream_invariant : start:int -> period:int -> bool;
      (** the driver's veto, applied to each planned region in {!make}
          and never to the shared plan: whether one iteration of the
          candidate pattern leaves the data stream where it started
          (see {!Data_stream.advance_invariant}).  Constant [true] when
          the data side is not replayed (single-process runs); a cheap
          pre-filter where it is live, convergence still only ever
          being established by fingerprint equality *)
  fingerprint : start:int -> period:int -> add:(int -> unit) -> unit;
      (** canonical fingerprint, at the current point, of the machine
          state one iteration of the pattern at [blocks.(start ..
          start+period)] can observe or modify — state provably
          untouched by the pattern (e.g. the whole data-memory side of
          a pure-compute loop) may be excluded, and state the replay
          does not carry (the data side of a single-process run, whose
          totals are added at finalisation) is absent.  [start] is
          always the region's first boundary, so the scanned window is
          identical across a region's snapshots *)
  exec : int -> unit;  (** execute the block at a trace position *)
  set_awake_recorder : (int -> unit) option -> unit;
      (** drowsy awake-increment recorder hook (no-op if not drowsy) *)
  drowsy_advance : since:int -> delta:int -> unit;
  drowsy_replay : int array -> len:int -> iters:int -> unit;
  cycles : int ref;  (** the replay loop's cycle accumulator *)
  instrs : int ref;  (** the replay loop's retired-instruction counter *)
  cache : Snapshot_cache.t option;
      (** shared converged-iteration cache; [None] runs detection
          standalone, bit-identical either way *)
  cache_scope : string;
      (** cache key component identifying the replayed world: the
          compiled trace's token, the full configuration digest and
          whether the data side is live (entries recorded with it hold
          D counters and stalls, entries recorded without it do not).
          Ignored when [cache] is [None] *)
  cycle_headroom : (unit -> int) option;
      (** when present, a skip may add at most this many cycles to
          [cycles] — the multiprogramming scheduler's quantum bound,
          so fast-forward never overruns a time slice and context
          switches land on exactly the block boundaries of a replay
          without fast-forward.  [None] = unbounded (single-run replay) *)
}

val run : ctx -> unit
(** Drive the whole trace through [ctx.exec], fast-forwarding converged
    periodic regions.  On return every trace position has been either
    executed or skipped-with-exact-effects; [ctx.report] describes
    which. *)

(** {1 Resumable driver}

    The multiprogramming machine executes a trace in quantum-bounded
    slices with context switches in between.  A {!driver} holds the
    replay position and the precomputed region plan across those
    slices, so fast-forward — and snapshot-cache reuse — survives
    preemption. *)

type driver

val make : ctx -> driver
(** Builds (or fetches the memoised) region plan for [ctx.blocks],
    drops the regions [ctx.stream_invariant] vetoes, and folds the
    scan-side counts ([gate_rejected], [cost_gated]) and the vetoed
    regions ([vetoed]) into [ctx.report]. *)

val engaged : driver -> bool
(** Whether the plan found any fast-forwardable region.  When [false]
    the driver degenerates to a plain replay loop; single-run callers
    can skip it and run their own loop at zero overhead. *)

val drive : driver -> unit
(** Run the driver to the end of the trace ([run ctx] is
    [drive (make ctx)]). *)

val pos : driver -> int
(** The next trace position to execute (= [Array.length ctx.blocks]
    when the trace is finished). *)

val advance : driver -> until:(unit -> bool) -> unit
(** Execute (or fast-forward) trace positions until the trace ends or
    [until ()] holds; [until] is re-checked after every executed block
    and after every applied skip, so a caller metering cycles stops on
    exactly the block boundary the plain loop would have stopped on.
    An attempt interrupted mid-recording is abandoned (recording is
    observational, so abandonment costs speed only). *)

val reawaken : driver -> unit
(** Re-enable detection from the current position.  A region cut short
    by [until] (or by the cycle-headroom cap) is marked settled so the
    remainder of the current slice doesn't re-fingerprint every block;
    the scheduler calls this when the process is dispatched again, so
    the hot loop's next boundary can hit the snapshot cache. *)
