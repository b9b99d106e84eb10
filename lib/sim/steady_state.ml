(* Steady-state loop fast-forward (ROADMAP: "the next 10-100x").

   Hot loops reach cache steady state within a few iterations — the
   dominant-block observation.  Once the machine state at two
   consecutive iteration boundaries of a periodic trace region is
   equal, every remaining in-pattern iteration must reproduce the
   recorded iteration exactly: the trace is the only input, and the
   canonical fingerprint covers everything future behaviour can
   observe.  The engine therefore multiplies the recorded iteration's
   effects by the remaining repetition count instead of replaying them.

   Every effect of an iteration is an integer, so a skip is integer
   arithmetic and exact:
   - counters, energy events included, are pure sums — snapshot deltas
     scaled by the repetition count ({!Stats.add_scaled_delta}); energy
     is priced from the counters only when the run finalises;
   - the drowsy awake accumulator adds its recorded integer increments
     scaled likewise, and touched lines' raw timestamps are advanced to
     exactly where a full replay would leave them.

   Detection is a static pre-scan, not a per-block tax.  Which trace
   stretches are periodic is a pure function of the block array — it
   reads no machine state — so the delta-gated detector (a rolling
   anchor-delta over each block's last occurrence, escalating to exact
   O(period) segment verification only when the recurrence distance
   holds steady) runs {e once} over the trace, off the replay path,
   and its verdict is memoised per (trace, policy): every scheme,
   every repeated run and every sweep cell replaying the same trace
   shares one scan.  At replay time the driver walks the precomputed
   region list; a patternless trace has an empty list and the caller
   can bypass the driver entirely ({!engaged}), so the fast-forward
   machinery costs such a run {e nothing}.  Only convergence — whether
   a verified pattern's boundary fingerprints actually settle — is
   decided at run time, because only it depends on machine state.

   With a snapshot cache attached, a converged region also publishes
   its (boundary fingerprint, pattern, effects) triple, and every
   boundary snapshot doubles as a lookup: re-entering the same pattern
   in the same observable state — later in this run, after a context
   switch, or in another sweep cell replaying the same compiled trace
   under the same configuration — skips from its first boundary
   without re-recording.  The key covers the world (trace token +
   config), the pattern and every fingerprint word, and a hit
   re-verifies all of them outright, so reuse preserves the same
   bit-identity argument as local convergence.

   Bail-out is structural or checked: the engine only runs on plain
   fast-step runs (a probed or resized run takes the fast step without
   it); drowsy timers — and, where the data side is live, stream
   cursors and RNG state — are part of the fingerprint, so any
   cross-iteration interaction simply never fingerprints equal and the
   region is replayed normally.  A single-process run carries no data
   state at all (its data side is added from {!Dside} at
   finalisation), so random data addresses cannot block its
   convergence; the stream-variance veto is a per-driver filter over
   the shared plan ({!make}), which only live-data drivers set. *)

type policy = {
  max_period_blocks : int;
  min_skip_instrs : int;
  max_attempts : int;
  snapshot_budget : int;
}

let default_policy =
  {
    max_period_blocks = 1024;
    min_skip_instrs = 2000;
    max_attempts = 24;
    snapshot_budget = 8192;
  }

type report = {
  mutable regions : int;
  mutable recorded_iterations : int;
  mutable converged : int;
  mutable skipped_iterations : int;
  mutable skipped_instrs : int;
  mutable gate_rejected : int;
  mutable vetoed : int;
  mutable cost_gated : int;
  mutable budget_exhausted : int;
  mutable cache_hits : int;
  mutable cache_inserts : int;
}

let create_report () =
  {
    regions = 0;
    recorded_iterations = 0;
    converged = 0;
    skipped_iterations = 0;
    skipped_instrs = 0;
    gate_rejected = 0;
    vetoed = 0;
    cost_gated = 0;
    budget_exhausted = 0;
    cache_hits = 0;
    cache_inserts = 0;
  }

type ctx = {
  policy : policy;
  report : report;
  stats : Stats.t;
  blocks : int array;
  n_ids : int;
  n_instrs_of : int -> int;
  stream_invariant : start:int -> period:int -> bool;
  fingerprint : start:int -> period:int -> add:(int -> unit) -> unit;
  exec : int -> unit;
  set_awake_recorder : (int -> unit) option -> unit;
  drowsy_advance : since:int -> delta:int -> unit;
  drowsy_replay : int array -> len:int -> iters:int -> unit;
  cycles : int ref;
  instrs : int ref;
  cache : Snapshot_cache.t option;
  cache_scope : string;
  cycle_headroom : (unit -> int) option;
}

(* Growable int buffers; reused across attempts so steady operation
   allocates nothing per snapshot. *)
type ibuf = { mutable ia : int array; mutable ilen : int }

let ibuf_create n = { ia = Array.make n 0; ilen = 0 }
let ibuf_clear b = b.ilen <- 0

let ibuf_push b x =
  let n = Array.length b.ia in
  if b.ilen = n then begin
    let a = Array.make (2 * n) 0 in
    Array.blit b.ia 0 a 0 n;
    b.ia <- a
  end;
  Array.unsafe_set b.ia b.ilen x;
  b.ilen <- b.ilen + 1

let ibuf_equal x y =
  x.ilen = y.ilen
  &&
  let rec go i =
    i >= x.ilen
    || (Array.unsafe_get x.ia i = Array.unsafe_get y.ia i && go (i + 1))
  in
  go 0

(* {2 The static pre-scan} *)

(* How many consecutive stable-delta blocks the gate demands before it
   escalates to segment verification: min (period, gate_depth).  Small
   enough that a loop is caught within its second iteration, large
   enough that a patternless trace — whose recurrence distances jitter
   block to block — almost never escalates. *)
let gate_depth = 4

(* A verified periodic stretch: [blocks.(r_start + j) =
   blocks.(r_start + j - r_period)] for every [r_start <= r_start + j
   < r_end], and one period retires [r_p_instrs] instructions.  Regions
   are disjoint and sorted by [r_start]. *)
type region = {
  r_start : int;
  r_period : int;
  r_end : int;
  r_p_instrs : int;
}

type plan = {
  p_regions : region array;
  p_gate_rejected : int;
  p_cost_gated : int;
}

(* The delta-gated detector, run once over the whole trace.  [gate_d]
   is the current candidate recurrence distance; [gate_len] counts
   consecutive blocks whose distance stayed within it; [gate_below]
   counts how long since a block recurred at exactly [gate_d], so a
   stale large distance decays once a full [gate_d] window passes
   without confirmation (an inner loop following unrelated code would
   otherwise be shadowed forever).  The scan reads nothing but the
   block array and the instruction counts: a driver's stream-variance
   veto is applied to the finished plan ({!make}), so every caller
   shares one plan whatever veto it carries. *)
let scan ~blocks ~n_ids ~(policy : policy) ~n_instrs_of =
  let nblocks = Array.length blocks in
  let max_p = policy.max_period_blocks in
  let last_pos = Array.make n_ids (-1) in
  let gate_d = ref 0 in
  let gate_len = ref 0 in
  let gate_below = ref 0 in
  let next_attempt = ref 0 in
  let regions = ref [] in
  let gate_rejected = ref 0 in
  let cost_gated = ref 0 in
  for kk = 0 to nblocks - 1 do
    let id = Array.unsafe_get blocks kk in
    (if kk >= !next_attempt then begin
       let prev = Array.unsafe_get last_pos id in
       if prev < 0 then begin
         gate_d := 0;
         gate_len := 0;
         gate_below := 0
       end
       else
         let p = kk - prev in
         if p > max_p then begin
           gate_d := 0;
           gate_len := 0;
           gate_below := 0
         end
         else begin
           (if !gate_d = 0 || p > !gate_d then begin
              gate_d := p;
              gate_len := 1;
              gate_below := 0
            end
            else begin
              incr gate_len;
              if p = !gate_d then gate_below := 0
              else begin
                incr gate_below;
                if !gate_below >= !gate_d then begin
                  (* a full candidate window passed without the anchor
                     distance recurring: the old distance was noise —
                     re-centre on what the trace is doing now *)
                  gate_d := p;
                  gate_len := 1;
                  gate_below := 0
                end
              end
            end);
           let fire_len = if p < gate_depth then p else gate_depth in
           if !gate_len >= fire_len && kk + p <= nblocks then begin
             (* Escalate: exact segment verification, then size the
                region. *)
             let ok = ref true in
             let j = ref 0 in
             while !ok && !j < p do
               if blocks.(kk + !j) <> blocks.(prev + !j) then ok := false
               else incr j
             done;
             if not !ok then incr gate_rejected
             else begin
               let je = ref (kk + p) in
               while !je < nblocks && blocks.(!je) = blocks.(!je - p) do
                 incr je
               done;
               let je = !je in
               let p_instrs = ref 0 in
               for j2 = kk to kk + p - 1 do
                 p_instrs := !p_instrs + n_instrs_of blocks.(j2)
               done;
               let total_iters = (je - kk) / p in
               let skippable = (total_iters - 1) * !p_instrs in
               if skippable >= policy.min_skip_instrs then
                 regions :=
                   { r_start = kk; r_period = p; r_end = je;
                     r_p_instrs = !p_instrs }
                   :: !regions
               else incr cost_gated;
               next_attempt := je
             end
           end
         end
     end);
    Array.unsafe_set last_pos id kk
  done;
  {
    p_regions = Array.of_list (List.rev !regions);
    p_gate_rejected = !gate_rejected;
    p_cost_gated = !cost_gated;
  }

(* Plan memo, keyed by the physical block array and the policy.  The
   instruction counts the scan consults are derived from the program,
   so they are constants of a given trace — every layout/scheme
   compiled from it shares the plan.  Keys are held weakly: generated
   traces (the fuzz corpus) must not accumulate here, and a dead
   trace's plan goes with it. *)
let plan_slots = 64
let plan_keys : int array Weak.t = Weak.create plan_slots
let plan_vals : (policy * plan) option array = Array.make plan_slots None
let plan_clock = ref 0
let plan_lock = Mutex.create ()

let plan_find blocks policy =
  let rec go i =
    if i >= plan_slots then None
    else
      match (Weak.get plan_keys i, plan_vals.(i)) with
      | Some b, Some (pol, pl) when b == blocks && pol = policy -> Some pl
      | _ -> go (i + 1)
  in
  go 0

let plan_for ~blocks ~n_ids ~policy ~n_instrs_of =
  Mutex.lock plan_lock;
  let hit = plan_find blocks policy in
  Mutex.unlock plan_lock;
  match hit with
  | Some pl -> pl
  | None -> (
      (* Scan outside the lock — it's pure; a racing domain at worst
         duplicates the work and the first insert wins. *)
      let pl = scan ~blocks ~n_ids ~policy ~n_instrs_of in
      Mutex.lock plan_lock;
      match plan_find blocks policy with
      | Some pl' ->
          Mutex.unlock plan_lock;
          pl'
      | None ->
          let i = !plan_clock mod plan_slots in
          plan_clock := !plan_clock + 1;
          Weak.set plan_keys i (Some blocks);
          plan_vals.(i) <- Some (policy, pl);
          Mutex.unlock plan_lock;
          pl)

(* {2 The replay-time driver} *)

(* The single-run sentinel for [advance ~until]: compared physically so
   the plain replay loop pays no per-block closure call. *)
let never () = false

type driver = {
  ctx : ctx;
  nblocks : int;
  plan : plan;
  mutable ri : int;  (** index of the first plan region not yet passed *)
  mutable settled_ri : int;
      (** region index marked settled (replay its remainder plainly);
          cleared by {!reawaken} so a preempted region's next boundary
          can hit the snapshot cache on re-dispatch *)
  mutable budget : int;
  (* Last observed fingerprint length: lets the driver pre-gate
     regions too small to repay even one snapshot without paying for
     that snapshot to find out (way-memoization's link table makes its
     snapshots ~10x a plain CAM's).  Starts at 0 so the first region
     always measures. *)
  mutable snap_len_hint : int;
  mutable zero_ints : int array;  (** scratch for cache-hit scaling *)
  k : int ref;
}

let make ctx =
  let shared =
    plan_for ~blocks:ctx.blocks ~n_ids:ctx.n_ids ~policy:ctx.policy
      ~n_instrs_of:ctx.n_instrs_of
  in
  (* The driver's own veto: a stream-variant pattern can never converge
     (the RNG or cursors move every iteration), so its region is never
     attempted.  Applied per driver, never to the shared plan. *)
  let regions =
    Array.of_list
      (List.filter
         (fun r -> ctx.stream_invariant ~start:r.r_start ~period:r.r_period)
         (Array.to_list shared.p_regions))
  in
  let plan = { shared with p_regions = regions } in
  let rep = ctx.report in
  rep.gate_rejected <- rep.gate_rejected + plan.p_gate_rejected;
  rep.vetoed <-
    rep.vetoed + Array.length shared.p_regions - Array.length regions;
  rep.cost_gated <- rep.cost_gated + plan.p_cost_gated;
  {
    ctx;
    nblocks = Array.length ctx.blocks;
    plan;
    ri = 0;
    settled_ri = -1;
    budget = ctx.policy.snapshot_budget;
    snap_len_hint = 0;
    zero_ints = [||];
    k = ref 0;
  }

(* Two boundary-fingerprint buffers and the awake-increment recorder:
   scratch used only inside one {!attempt}, pooled across drivers and
   threads so that a run allocates none (and a buffer grown for a large
   fingerprint stays grown).  Per-run buffers are the largest direct
   major-heap allocation of a short replay; pooling them lowered the
   peak RSS of a sequence of cold runs by up to 9%. *)
type scratch = { mutable snap_a : ibuf; mutable snap_b : ibuf; awake : ibuf }

let scratch_pool = ref []
let scratch_lock = Mutex.create ()

let take_scratch () =
  Mutex.lock scratch_lock;
  let sc =
    match !scratch_pool with
    | sc :: rest ->
        scratch_pool := rest;
        sc
    | [] ->
        { snap_a = ibuf_create 4096; snap_b = ibuf_create 4096;
          awake = ibuf_create 64 }
  in
  Mutex.unlock scratch_lock;
  sc

let give_scratch sc =
  Mutex.lock scratch_lock;
  scratch_pool := sc :: !scratch_pool;
  Mutex.unlock scratch_lock

let pos d = !(d.k)
let reawaken d = d.settled_ri <- -1
let engaged d = Array.length d.plan.p_regions > 0

let take_snapshot d buf ~start ~period =
  d.budget <- d.budget - 1;
  ibuf_clear buf;
  d.ctx.fingerprint ~start ~period ~add:(fun x -> ibuf_push buf x)

(* Largest number of iterations a skip may apply: the remaining full
   in-pattern repetitions, clamped by the caller's cycle headroom so a
   quantum-metered replay stops on exactly the block boundary the
   plain loop would have stopped on. *)
let clamp_iters d ~n_rem ~iter_cycles =
  match d.ctx.cycle_headroom with
  | None -> n_rem
  | Some headroom ->
      if iter_cycles <= 0 then n_rem
      else
        let h = headroom () in
        let fit = if h <= 0 then 0 else h / iter_cycles in
        if fit < n_rem then fit else n_rem

(* Apply [iters] repetitions of a converged iteration's effects.  The
   caller guarantees the machine currently sits at an iteration
   boundary whose observable state equals the state the effects were
   recorded from, and that the preceding [period] blocks were one full
   iteration of the pattern (the scan's segment verification provides
   this even at a region's first boundary), so the touched-line set of
   the last [fetches] fetches is exactly one iteration's. *)
let apply_effects d ~ints_delta ~awake ~awake_len ~fetches ~iter_cycles
    ~iter_instrs ~iters ~period =
  let ctx = d.ctx in
  ctx.drowsy_advance
    ~since:(ctx.stats.Stats.fetches - fetches)
    ~delta:(iters * fetches);
  ctx.drowsy_replay awake ~len:awake_len ~iters;
  if Array.length d.zero_ints <> Array.length ints_delta then
    d.zero_ints <- Array.make (Array.length ints_delta) 0;
  Stats.add_scaled_delta ctx.stats ~before:d.zero_ints ~after:ints_delta
    ~times:iters;
  ctx.cycles := !(ctx.cycles) + (iters * iter_cycles);
  ctx.instrs := !(ctx.instrs) + (iters * iter_instrs);
  ctx.report.skipped_iterations <- ctx.report.skipped_iterations + iters;
  ctx.report.skipped_instrs <-
    ctx.report.skipped_instrs + (iters * iter_instrs);
  d.k := !(d.k) + (iters * period)

(* Boundary cache lookup: fingerprint the current boundary (the caller
   just stored it in [buf]), and if the cache knows a converged
   iteration for this (world, pattern, state), skip the remaining
   repetitions immediately.  [ids] is the region's canonical period
   slice — every boundary of a region shares it.  Returns the computed
   key (for a later insert) and whether a skip was applied. *)
let try_cache d ~buf ~ids ~p ~je =
  match d.ctx.cache with
  | None -> (None, false)
  | Some cache ->
      let key =
        Snapshot_cache.key ~scope:d.ctx.cache_scope ~period:p ~ids ~fp:buf.ia
          ~fp_len:buf.ilen
      in
      (match Snapshot_cache.find cache ~key ~fp:buf.ia ~fp_len:buf.ilen with
      | None -> (Some key, false)
      | Some e ->
          let n_rem = (je - 1 - !(d.k)) / p in
          let m = clamp_iters d ~n_rem ~iter_cycles:e.Snapshot_cache.e_cycles in
          if m <= 0 then (Some key, false)
          else begin
            d.ctx.report.cache_hits <- d.ctx.report.cache_hits + 1;
            apply_effects d ~ints_delta:e.Snapshot_cache.e_ints
              ~awake:e.Snapshot_cache.e_awake
              ~awake_len:(Array.length e.Snapshot_cache.e_awake)
              ~fetches:e.Snapshot_cache.e_fetches
              ~iter_cycles:e.Snapshot_cache.e_cycles
              ~iter_instrs:e.Snapshot_cache.e_instrs ~iters:m ~period:p;
            (Some key, true)
          end)

let publish d sc ~key ~ints_before ~ints_after ~fetches ~iter_cycles
    ~iter_instrs =
  match (d.ctx.cache, key) with
  | Some cache, Some key ->
      let n = Array.length ints_before in
      let ints_delta = Array.init n (fun i -> ints_after.(i) - ints_before.(i)) in
      Snapshot_cache.add cache ~key
        {
          Snapshot_cache.e_fp = Array.sub sc.snap_b.ia 0 sc.snap_b.ilen;
          e_ints = ints_delta;
          e_awake = Array.sub sc.awake.ia 0 sc.awake.ilen;
          e_fetches = fetches;
          e_cycles = iter_cycles;
          e_instrs = iter_instrs;
        };
      d.ctx.report.cache_inserts <- d.ctx.report.cache_inserts + 1
  | (None, _ | _, None) -> ()

(* The trace repeats with period [p] over [d.k, je).  Try the snapshot
   cache at each boundary; otherwise execute iterations, recording
   each one's effects, until two consecutive boundary fingerprints are
   equal; then skip the remaining repetitions arithmetically.
   Iterations are only recorded (and only skipped) while a {e full}
   period plus its terminator's lookahead stays inside the pattern:
   the last block of an iteration starting at [s] reads [blocks.(s +
   p)] to resolve its branch, so [s + p < je] is required — the final
   partial stretch is always executed normally.  Returns [false] when
   the region was cut short (by [until] or the headroom clamp) and
   detection should be re-enabled on the next dispatch. *)
let attempt d ~p ~je ~skippable ~until =
  let ctx = d.ctx in
  let pol = ctx.policy in
  let rep = ctx.report in
  rep.regions <- rep.regions + 1;
  (* All of a region's snapshots describe one period of the same
     pattern; scan it from the entry boundary (the pattern slice is
     the same at every boundary), not from a moving one. *)
  let start = !(d.k) in
  let ids = Array.sub ctx.blocks start p in
  let sc = take_scratch () in
  take_snapshot d sc.snap_a ~start ~period:p;
  d.snap_len_hint <- sc.snap_a.ilen;
  let step () =
    let kk = !(d.k) in
    ctx.exec kk;
    d.k := kk + 1
  in
  let result =
    match try_cache d ~buf:sc.snap_a ~ids ~p ~je with
    | _, true ->
        (* served from the cache; [true] iff the whole region was
           consumed (a headroom-clamped skip leaves a tail) *)
        !(d.k) + p >= je
    | key0, false ->
        let key = ref key0 in
        let settled = ref true in
        let converged = ref false in
        (* Cost gate, now that the fingerprint's actual size is known:
           convergence takes two snapshots at minimum and each one scans
           this many words, so a region whose whole skippable stretch is
           smaller than its own fingerprint is overhead, not speedup
           (schemes differ by 10x in snapshot size — way-memoization's
           link table dwarfs a plain CAM's). *)
        let exhausted = ref (skippable < pol.min_skip_instrs + sc.snap_a.ilen) in
        if !exhausted then rep.cost_gated <- rep.cost_gated + 1;
        let attempts = ref 0 in
        let live = until != never in
        while (not !converged) && not !exhausted do
          if !(d.k) + p >= je || !attempts >= pol.max_attempts || d.budget <= 0
          then begin
            exhausted := true;
            rep.budget_exhausted <- rep.budget_exhausted + 1
          end
          else begin
            incr attempts;
            rep.recorded_iterations <- rep.recorded_iterations + 1;
            ibuf_clear sc.awake;
            let ints_before = Stats.snapshot_ints ctx.stats in
            let fetches_before = ctx.stats.Stats.fetches in
            let cyc_before = !(ctx.cycles) in
            let ins_before = !(ctx.instrs) in
            ctx.set_awake_recorder (Some (fun aw -> ibuf_push sc.awake aw));
            let stepped = ref 0 in
            let interrupted = ref false in
            while (not !interrupted) && !stepped < p do
              step ();
              incr stepped;
              if live && until () then interrupted := true
            done;
            ctx.set_awake_recorder None;
            if !interrupted && !stepped < p then begin
              (* preempted mid-iteration: the recording is unusable (the
                 blocks themselves executed normally and are accounted;
                 only the observation stops). *)
              exhausted := true;
              settled := false
            end
            else begin
              take_snapshot d sc.snap_b ~start ~period:p;
              if ibuf_equal sc.snap_a sc.snap_b then begin
                (* Converged locally.  The publish key is the converged
                   boundary's: [key0] when the first pair converged, the
                   last boundary's lookup key otherwise — either way it
                   was computed over exactly these fingerprint words. *)
                converged := true;
                rep.converged <- rep.converged + 1;
                let ints_after = Stats.snapshot_ints ctx.stats in
                let fetches = ctx.stats.Stats.fetches - fetches_before in
                let iter_cycles = !(ctx.cycles) - cyc_before in
                let iter_instrs = !(ctx.instrs) - ins_before in
                publish d sc ~key:!key ~ints_before ~ints_after ~fetches
                  ~iter_cycles ~iter_instrs;
                let n_rem = (je - 1 - !(d.k)) / p in
                let m = clamp_iters d ~n_rem ~iter_cycles in
                if m < n_rem then settled := false;
                if m > 0 then begin
                  let n = Array.length ints_before in
                  let ints_delta =
                    Array.init n (fun i -> ints_after.(i) - ints_before.(i))
                  in
                  apply_effects d ~ints_delta ~awake:sc.awake.ia ~awake_len:sc.awake.ilen ~fetches
                    ~iter_cycles ~iter_instrs ~iters:m ~period:p
                end
              end
              else begin
                (* Not converged yet: the cache may still know this
                   boundary's state (convergence checked first — it's a
                   word compare, the lookup builds a key). *)
                match try_cache d ~buf:sc.snap_b ~ids ~p ~je with
                | _, true ->
                    converged := true;
                    settled := !(d.k) + p >= je
                | k2, false ->
                    (match k2 with Some _ -> key := k2 | None -> ());
                    (* Compare the next pair of boundaries. *)
                    let t = sc.snap_a in
                    sc.snap_a <- sc.snap_b;
                    sc.snap_b <- t;
                    if live && until () then begin
                      exhausted := true;
                      settled := false
                    end
              end
            end
          end
        done;
        !settled
  in
  give_scratch sc;
  result

let advance d ~until =
  let ctx = d.ctx in
  let exec = ctx.exec in
  let nblocks = d.nblocks in
  let regions = d.plan.p_regions in
  let nregions = Array.length regions in
  let pol = ctx.policy in
  let rep = ctx.report in
  let live = until != never in
  let k = ref !(d.k) in
  let stop = ref false in
  let exec_to limit =
    if live then
      while (not !stop) && !k < limit do
        exec !k;
        incr k;
        if until () then stop := true
      done
    else begin
      (* The plain replay loop: no per-block detection state, no
         preemption checks — the scan already said where the regions
         are. *)
      for j = !k to limit - 1 do
        exec j
      done;
      k := limit
    end
  in
  while (not !stop) && !k < nblocks do
    if d.ri >= nregions || d.budget <= 0 then exec_to nblocks
    else begin
      let r = Array.unsafe_get regions d.ri in
      if !k >= r.r_end then d.ri <- d.ri + 1
      else begin
        let p = r.r_period in
        (* The next in-pattern iteration boundary at or after [k]: a
           quantum expiry can park the driver mid-region, and every
           boundary is as good as the first (the pattern slice is
           position-independent and the preceding period is in-pattern
           or scan-verified). *)
        let b =
          if !k <= r.r_start then r.r_start
          else r.r_start + ((!k - r.r_start + p - 1) / p * p)
        in
        if d.settled_ri = d.ri || b + p >= r.r_end then
          (* settled earlier, or too little left to skip even one
             iteration: replay the remainder plainly *)
          exec_to r.r_end
        else begin
          exec_to b;
          if not !stop then begin
            d.k := b;
            let skippable = (((r.r_end - b) / p) - 1) * r.r_p_instrs in
            if skippable >= pol.min_skip_instrs + d.snap_len_hint then begin
              let settled = attempt d ~p ~je:r.r_end ~skippable ~until in
              k := !(d.k);
              if settled then d.settled_ri <- d.ri;
              if live && until () then stop := true
            end
            else begin
              rep.cost_gated <- rep.cost_gated + 1;
              d.settled_ri <- d.ri
            end
          end
        end
      end
    end
  done;
  d.k := !k

let drive d = advance d ~until:never
let run ctx = drive (make ctx)
