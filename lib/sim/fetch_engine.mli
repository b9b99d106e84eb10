(** The instruction-fetch path: I-TLB + I-cache under one of the three
    schemes (paper Sections 2 and 4).

    Per fetch the engine decides the access mode:
    - {b same-line}: the address shares a line with the previous fetch
      and the scheme elides tag checks (way-placement and
      way-memoization do; the baseline never does) — the tag side stays
      off, only a data word is read;
    - {b way-placed}: the way-hint bit predicted a way-placement-area
      access and the I-TLB confirms it — a single way is searched, and
      on a miss the line is filled into the way named by the low tag
      bits;
    - {b hint re-access}: the hint predicted way-placed but the page is
      not — the single-way probe is wasted, a full access follows, and
      one penalty cycle is charged (Section 4.1, second scenario);
    - {b full}: everything else searches all ways.

    Every energy-bearing event is counted in the run's {!Stats.t}; the
    run is priced from those counts when it finalises. *)

type t

val create : ?probe:Wp_obs.Probe.t -> Config.t -> code_base:Wp_isa.Addr.t -> t
(** [probe] observes every fetch-path event (fetch kinds, hits/misses,
    tag comparisons, CAM searches, hint outcomes, TLB misses, resizes,
    flushes) at the exact sites where the corresponding {!Stats.t}
    counters are bumped; simulation results are bit-identical with or
    without it.
    @raise Invalid_argument if the configuration fails
    {!Config.validate}. *)

val fetch : t -> Stats.t -> Wp_isa.Addr.t -> int
(** Fetch one instruction; returns the stall in cycles beyond the base
    fetch cycle (0 on an undisturbed hit). *)

val fetch_run : t -> Stats.t -> Wp_isa.Addr.t -> n:int -> int
(** Fetch [n] consecutive instructions starting at [addr], {e all
    within one cache line} (the caller — a {!Compiled_trace} plan —
    guarantees this); returns the summed stall.  Bit-identical
    {!Stats.t} effects to [n] successive {!fetch} calls: the head goes
    through the generic path, the same-line tail is batched per scheme
    (or falls back to per-fetch calls where batching has no specialised
    form).  Probed engines always take the per-fetch fallback, so the
    event stream is unchanged too.
    @raise Invalid_argument if [n <= 0]. *)

val reset_stream : t -> unit
(** Forget the previous-fetch context (used at simulation start and by
    tests); cache contents are preserved. *)

val flush : t -> unit
(** Cold caches, TLB and hint — required when the OS resizes the
    way-placement area mid-run (see {!Wayplace.Area}). *)

val flush_tlb : t -> unit
(** Context-switch TLB shootdown: invalidate every I-TLB entry (the
    modelled core has no ASIDs) and drop the previous-fetch stream
    context.  Cache contents survive — under multiprogramming,
    processes deliberately pollute each other's ways. *)

val set_window : t -> base:Wp_isa.Addr.t -> area_bytes:int -> unit
(** Retarget the way-placed window — the [area_bytes] starting at
    [base] whose pages carry the way-placement TLB bit — without
    flushing anything; the multiprogramming layer calls this per
    process at dispatch ([area_bytes = 0] for a process with no placed
    code).  A no-op on non-way-placement configurations.  Callers
    changing address spaces must also {!flush_tlb}: already-resident
    TLB entries keep the bits of the window they were filled under.
    @raise Invalid_argument if [area_bytes < 0]. *)

val resize_area : t -> area_bytes:int -> unit
(** Change the way-placement area size at run time, as the OS may
    (paper Section 4.1).  The I-cache, I-TLB and way-hint bit are
    flushed: existing placements and way-placement bits are stale for
    the new area.
    @raise Invalid_argument on non-way-placement configurations or a
    non-positive size. *)

val fingerprint : t -> now:int -> add:(int -> unit) -> unit
(** Emit a canonical fingerprint of the whole fetch path (scheme
    caches, way-placement area + hint, I-TLB, drowsy wake state at
    fetch-tick [now], previous-fetch context) for the steady-state
    fast-forward detector.  Equal fingerprints at two points with
    identical upcoming fetch sequences imply identical future counters,
    stalls and energy charges. *)

val set_drowsy_recorder : t -> (int -> unit) option -> unit
(** Install (or clear) the drowsy awake-increment recorder
    ({!Wp_cache.Drowsy.set_recorder}); a no-op without a drowsy
    policy. *)

val drowsy_advance_touched : t -> since:int -> delta:int -> unit
(** {!Wp_cache.Drowsy.advance_touched} on the drowsy state, if any —
    the fast-forward materialisation step. *)

val drowsy_replay_awake : t -> int array -> len:int -> iters:int -> unit
(** {!Wp_cache.Drowsy.replay_awake} on the drowsy state, if any. *)

val drowsy_rebase : t -> old_now:int -> new_now:int -> unit
(** {!Wp_cache.Drowsy.rebase} on the drowsy state, if any — the
    multiprogramming layer's clock handover when the charging process
    (whose fetch counter is the drowsy clock) changes at a context
    switch under the shared-drowsy policy. *)

val drowsy_sleep_all : t -> now:int -> unit
(** {!Wp_cache.Drowsy.sleep_all} on the drowsy state, if any — the
    flush-on-switch drowsy policy. *)

val leakage_pj : ?now_fetches:int -> t -> Stats.t -> cycles:int -> float
(** End-of-run leakage energy of a run of [cycles] cycles (zero unless
    the configuration enabled leakage accounting); a probe sees it as
    one [Leakage] event.  [now_fetches] overrides the drowsy clock
    reading (defaults to [stats.fetches]) for callers whose [Stats.t]
    did not count the fetches. *)

val way_placed_addr : t -> Wp_isa.Addr.t -> bool
(** Whether an address falls inside the configured way-placement area
    (false for baseline and way-memoization configs). *)
