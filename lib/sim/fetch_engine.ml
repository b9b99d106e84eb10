open Wp_cache

type backend =
  | B_baseline of Cam_cache.t
  | B_way_placement of {
      cache : Cam_cache.t;
      hint : Wp_tlb.Way_hint.t;
      mutable area_bytes : int;
    }
  | B_way_memo of Way_memo.t
  | B_way_predict of Way_predict.t
  | B_filter of { filter : Filter_cache.t; l1 : Cam_cache.t }

(* The way-placed virtual window: [warea] bytes starting at [wbase].
   Under single-process runs this is pinned to [code_base] and the
   configured area; the multiprogramming layer retargets it per process
   at context switches (the OS rewrites which pages carry the
   way-placement TLB bit), with [warea = 0] for a process whose code is
   not way-placed. *)
type window = { mutable wbase : Wp_isa.Addr.t; mutable warea : int }

type t = {
  backend : backend;
  window : window;
  tlb : Wp_tlb.Tlb.t;
  geometry : Geometry.t;
  memory_latency : int;
  tlb_walk_latency : int;
  same_line_elision : bool;
  code_base : Wp_isa.Addr.t;
  drowsy : Drowsy.t option;
  leakage_enabled : bool;
  energy_params : Wp_energy.Params.t;
  probe : Wp_obs.Probe.t option;
  wp_bit_of_page : Wp_isa.Addr.t -> bool;
      (** hoisted so [translate] doesn't allocate a closure per call *)
  mutable prev_addr : Wp_isa.Addr.t;  (** -1 = no context *)
  mutable prev_set : int;
  mutable prev_way : int;
}

let create ?probe (config : Config.t) ~code_base =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fetch_engine.create: " ^ msg));
  let backend =
    match config.scheme with
    | Config.Baseline ->
        B_baseline
          (Cam_cache.create ?probe config.icache ~replacement:config.replacement)
    | Config.Way_placement { area_bytes } ->
        B_way_placement
          {
            cache =
              Cam_cache.create ?probe config.icache
                ~replacement:config.replacement;
            hint = Wp_tlb.Way_hint.create ();
            area_bytes;
          }
    | Config.Way_memoization ->
        B_way_memo
          (Way_memo.create ~invalidation:config.memo_invalidation ?probe
             config.icache ~replacement:config.replacement)
    | Config.Way_prediction ->
        B_way_predict
          (Way_predict.create ?probe config.icache
             ~replacement:config.replacement)
    | Config.Filter_cache _ ->
        B_filter
          {
            filter =
              Filter_cache.create ?probe
                ~l0:(Option.get (Config.l0_geometry config))
                ();
            l1 =
              Cam_cache.create ?probe config.icache
                ~replacement:config.replacement;
          }
  in
  let window =
    {
      wbase = code_base;
      warea =
        (match config.scheme with
        | Config.Way_placement { area_bytes } -> area_bytes
        | Config.Baseline | Config.Way_memoization | Config.Way_prediction
        | Config.Filter_cache _ ->
            0);
    }
  in
  {
    backend;
    window;
    tlb =
      Wp_tlb.Tlb.create ~entries:config.itlb_entries
        ~page_bytes:config.page_bytes;
    geometry = config.icache;
    memory_latency = config.memory_latency;
    tlb_walk_latency = config.tlb_walk_latency;
    same_line_elision = config.same_line_elision;
    code_base;
    drowsy =
      Option.map
        (fun window -> Drowsy.create ?probe config.icache ~window)
        config.drowsy_window_fetches;
    leakage_enabled = config.leakage_enabled;
    energy_params = config.energy;
    probe;
    wp_bit_of_page =
      (match backend with
      | B_way_placement _ ->
          fun page -> page >= window.wbase && page - window.wbase < window.warea
      | B_baseline _ | B_way_memo _ | B_way_predict _ | B_filter _ ->
          fun _ -> false);
    prev_addr = -1;
    prev_set = -1;
    prev_way = -1;
  }

let way_placed_addr t addr =
  match t.backend with
  | B_way_placement _ ->
      addr >= t.window.wbase && addr - t.window.wbase < t.window.warea
  | B_baseline _ | B_way_memo _ | B_way_predict _ | B_filter _ -> false

(* Retarget the way-placed window without flushing anything: the OS
   simply maps the incoming process's placement pages with the TLB bit
   set.  [area_bytes = 0] marks a process with no placed code.  Callers
   that change address spaces must flush the I-TLB themselves
   ({!flush_tlb}) — stale entries would otherwise keep the old
   window's bits. *)
let set_window t ~base ~area_bytes =
  if area_bytes < 0 then
    invalid_arg "Fetch_engine.set_window: negative area";
  match t.backend with
  | B_way_placement _ ->
      t.window.wbase <- base;
      t.window.warea <- area_bytes
  | B_baseline _ | B_way_memo _ | B_way_predict _ | B_filter _ -> ()

(* Context-switch TLB shootdown: the modelled core has no ASIDs, so a
   process change invalidates every virtual mapping.  Cache contents
   are physical and deliberately survive — processes pollute each
   other's ways.  The previous-fetch stream context is stale across an
   address-space change and is dropped with it. *)
let flush_tlb t =
  Wp_tlb.Tlb.flush t.tlb;
  t.prev_addr <- -1;
  t.prev_set <- -1;
  t.prev_way <- -1

(* One I-cache array access: [ways] tag ways searched and [reads] data
   words read — the two energy-bearing event classes no other counter
   fixes (fills, link writes, wakes and memory reads have their own). *)
let count_array t (stats : Stats.t) ~ways ~reads =
  stats.tag_ways <- stats.tag_ways + ways;
  stats.data_reads <- stats.data_reads + reads;
  match t.probe with
  | None -> ()
  | Some p ->
      p (Wp_obs.Probe.Tag_ways ways);
      p (Wp_obs.Probe.Data_reads reads)

(* Drowsy bookkeeping: touching a line keeps it awake; touching a
   sleeping line costs a wake-up (energy + one cycle).  Returns the
   extra stall. *)
let note_line t (stats : Stats.t) ~set ~way =
  t.prev_set <- set;
  t.prev_way <- way;
  match t.drowsy with
  | None -> 0
  | Some d ->
      if Drowsy.note_access d ~now:stats.fetches ~set ~way then begin
        stats.drowsy_wakes <- stats.drowsy_wakes + 1;
        1
      end
      else 0

(* [m] back-to-back touches of one line, the last at the current fetch
   count: [note_line] per touch, for the batched same-line tail. *)
let note_run t (stats : Stats.t) ~set ~way ~m =
  match t.drowsy with
  | None -> 0
  | Some d ->
      let base = stats.fetches - m in
      let extra = ref 0 in
      for j = 1 to m do
        if Drowsy.note_access d ~now:(base + j) ~set ~way then begin
          stats.drowsy_wakes <- stats.drowsy_wakes + 1;
          incr extra
        end
      done;
      !extra

(* I-TLB access: every non-same-line fetch translates.  The result is
   int-encoded — bit 0 is the way-placement bit, the remaining bits the
   walk stall — so the hot path allocates neither a record nor a
   tuple. *)
let translate t (stats : Stats.t) addr =
  let bits =
    Wp_tlb.Tlb.lookup_bits t.tlb addr ~wp_bit_of_page:t.wp_bit_of_page
  in
  let wp = (bits lsr 1) land 1 in
  if bits land 1 = 1 then wp
  else begin
    stats.itlb_misses <- stats.itlb_misses + 1;
    (match t.probe with None -> () | Some p -> p Wp_obs.Probe.Itlb_miss);
    (t.tlb_walk_latency lsl 1) lor wp
  end

(* A full-width access on the plain CAM cache, shared by the baseline
   and the way-placement scheme's wide paths.  [fill_policy] differs:
   way-placement-area lines always land in their designated way. *)
let full_access t (stats : Stats.t) cache addr ~fill_policy =
  stats.full_fetches <- stats.full_fetches + 1;
  (* [lookup_full] performs [assoc] comparisons over [assoc] precharged
     ways whether it hits or not, so the outcome record carries nothing
     the constants below don't — the way-returning twin avoids the
     allocation. *)
  let hit_way = Cam_cache.lookup_full_way cache addr in
  let assoc = t.geometry.Geometry.assoc in
  stats.tag_comparisons <- stats.tag_comparisons + assoc;
  (match t.probe with
  | None -> ()
  | Some p ->
      p (Wp_obs.Probe.Fetch Full);
      p (Wp_obs.Probe.Tag_comparisons assoc);
      p (Wp_obs.Probe.Icache_access { hit = hit_way >= 0 }));
  count_array t stats ~ways:assoc ~reads:1;
  let set = Geometry.set_index t.geometry addr in
  if hit_way >= 0 then begin
    stats.icache_hits <- stats.icache_hits + 1;
    note_line t stats ~set ~way:hit_way
  end
  else begin
    stats.icache_misses <- stats.icache_misses + 1;
    let way, _evicted = Cam_cache.fill_absent cache addr fill_policy in
    t.memory_latency + note_line t stats ~set ~way
  end

(* Single-way (way-placed) access: 1 comparison; misses refill the
   designated way. *)
let way_placed_access t (stats : Stats.t) cache addr =
  stats.wp_fetches <- stats.wp_fetches + 1;
  let way = Geometry.way_of_addr t.geometry addr in
  let hit = Cam_cache.lookup_way_hit cache addr ~way in
  stats.tag_comparisons <- stats.tag_comparisons + 1;
  (match t.probe with
  | None -> ()
  | Some p ->
      p (Wp_obs.Probe.Fetch Way_placed);
      p (Wp_obs.Probe.Tag_comparisons 1);
      p (Wp_obs.Probe.Icache_access { hit }));
  count_array t stats ~ways:1 ~reads:1;
  let set = Geometry.set_index t.geometry addr in
  if hit then begin
    stats.icache_hits <- stats.icache_hits + 1;
    note_line t stats ~set ~way
  end
  else begin
    stats.icache_misses <- stats.icache_misses + 1;
    let _way, _evicted = Cam_cache.fill cache addr (Cam_cache.Forced_way way) in
    t.memory_latency + note_line t stats ~set ~way
  end

let memo_access t (stats : Stats.t) memo addr =
  let r = Way_memo.fetch memo addr in
  stats.tag_comparisons <- stats.tag_comparisons + r.Way_memo.tag_comparisons;
  if r.Way_memo.link_followed then
    stats.link_follows <- stats.link_follows + 1
  else stats.full_fetches <- stats.full_fetches + 1;
  (match t.probe with
  | None -> ()
  | Some p ->
      p
        (Wp_obs.Probe.Fetch
           (if r.Way_memo.link_followed then Link_follow else Full));
      p (Wp_obs.Probe.Tag_comparisons r.Way_memo.tag_comparisons);
      p (Wp_obs.Probe.Icache_access { hit = r.Way_memo.hit }));
  if r.Way_memo.link_written then stats.link_writes <- stats.link_writes + 1;
  stats.links_invalidated <-
    stats.links_invalidated + r.Way_memo.links_invalidated;
  count_array t stats ~ways:r.Way_memo.ways_precharged ~reads:1;
  if r.Way_memo.hit then begin
    stats.icache_hits <- stats.icache_hits + 1;
    0
  end
  else begin
    stats.icache_misses <- stats.icache_misses + 1;
    t.memory_latency
  end

(* Way prediction: probe the MRU way first; a mispredict searches the
   rest in a second cycle (Inoue et al.). *)
let waypred_access t (stats : Stats.t) predictor addr =
  stats.full_fetches <- stats.full_fetches + 1;
  let r = Way_predict.access predictor addr in
  stats.tag_comparisons <- stats.tag_comparisons + r.Way_predict.tag_comparisons;
  (match t.probe with
  | None -> ()
  | Some p ->
      p (Wp_obs.Probe.Fetch Full);
      p (Wp_obs.Probe.Tag_comparisons r.Way_predict.tag_comparisons);
      p (Wp_obs.Probe.Icache_access { hit = r.Way_predict.hit }));
  if r.Way_predict.predicted_correctly then
    stats.waypred_correct <- stats.waypred_correct + 1
  else stats.waypred_wrong <- stats.waypred_wrong + 1;
  (* The predicted way's data is read speculatively; a mispredict reads
     the correct way again. *)
  let reads =
    let n =
      r.Way_predict.first_probe_ways
      + if r.Way_predict.predicted_correctly then 0 else 1
    in
    if n < 1 then 1 else n
  in
  count_array t stats
    ~ways:(r.Way_predict.first_probe_ways + r.Way_predict.second_probe_ways)
    ~reads;
  if r.Way_predict.hit then begin
    stats.icache_hits <- stats.icache_hits + 1;
    r.Way_predict.penalty_cycles
  end
  else begin
    stats.icache_misses <- stats.icache_misses + 1;
    r.Way_predict.penalty_cycles + t.memory_latency
  end

(* Filter cache: the tiny L0 catches most fetches; L0 misses pay a
   cycle and a full L1 access (Kin et al.).  The L0 probe and the word
   it streams are priced per L0 access and per fetch, so only the L1
   side counts array events. *)
let filter_access t (stats : Stats.t) filter l1 addr =
  let r = Filter_cache.access filter addr in
  stats.tag_comparisons <- stats.tag_comparisons + r.Filter_cache.l0_tag_comparisons;
  (match t.probe with
  | None -> ()
  | Some p ->
      p (Wp_obs.Probe.Tag_comparisons r.Filter_cache.l0_tag_comparisons));
  if r.Filter_cache.l0_hit then begin
    stats.l0_hits <- stats.l0_hits + 1;
    stats.full_fetches <- stats.full_fetches + 1;
    stats.icache_hits <- stats.icache_hits + 1;
    (match t.probe with
    | None -> ()
    | Some p ->
        p (Wp_obs.Probe.Fetch Full);
        p (Wp_obs.Probe.Icache_access { hit = true }));
    0
  end
  else begin
    stats.l0_misses <- stats.l0_misses + 1;
    r.Filter_cache.penalty_cycles
    + full_access t stats l1 addr ~fill_policy:Cam_cache.Victim_by_policy
  end

let fetch t (stats : Stats.t) addr =
  stats.fetches <- stats.fetches + 1;
  let same_line =
    t.prev_addr >= 0 && Geometry.same_line t.geometry addr t.prev_addr
  in
  (* Sequential same-line fetches skip the tag side on every scheme:
     the XScale's sequential-access optimisation is a property of the
     machine, not of the energy-saving scheme (cf. paper Section 4.2
     and [12]).  The config flag disables it for the ablation bench. *)
  let elide = same_line && t.same_line_elision in
  let stall =
    if elide then begin
      stats.same_line_fetches <- stats.same_line_fetches + 1;
      (match t.probe with
      | None -> ()
      | Some p -> p (Wp_obs.Probe.Fetch Same_line));
      (match t.backend with
      | B_way_memo memo ->
          Way_memo.note_same_line memo addr;
          count_array t stats ~ways:0 ~reads:1
      | B_filter _ ->
          (* The previous fetch left this line resident in the L0
             (either it hit there or the miss refilled it), so the
             sequential word streams from the L0 array — reading the
             L1's much larger array would overbill the scheme. *)
          ()
      | B_way_placement _ | B_baseline _ | B_way_predict _ ->
          count_array t stats ~ways:0 ~reads:1);
      if t.prev_set >= 0 then
        ignore (note_line t stats ~set:t.prev_set ~way:t.prev_way);
      0
    end
    else begin
      let tr = translate t stats addr in
      let tlb_stall = tr lsr 1 in
      let way_placed = tr land 1 = 1 in
      let access_stall =
        match t.backend with
        | B_baseline cache ->
            full_access t stats cache addr
              ~fill_policy:Cam_cache.Victim_by_policy
        | B_way_memo memo -> memo_access t stats memo addr
        | B_way_predict predictor -> waypred_access t stats predictor addr
        | B_filter { filter; l1 } -> filter_access t stats filter l1 addr
        | B_way_placement { cache; hint; area_bytes = _ } -> begin
            match Wp_tlb.Way_hint.resolve hint ~actual:way_placed with
            | Wp_tlb.Way_hint.Correct_way_placed ->
                stats.hint_correct_wp <- stats.hint_correct_wp + 1;
                (match t.probe with
                | None -> ()
                | Some p -> p (Wp_obs.Probe.Hint Correct_wp));
                way_placed_access t stats cache addr
            | Wp_tlb.Way_hint.Correct_normal ->
                stats.hint_correct_normal <- stats.hint_correct_normal + 1;
                (match t.probe with
                | None -> ()
                | Some p -> p (Wp_obs.Probe.Hint Correct_normal));
                full_access t stats cache addr
                  ~fill_policy:Cam_cache.Victim_by_policy
            | Wp_tlb.Way_hint.Missed_saving ->
                (* Way-placed page accessed with the wide path; the
                   fill must still respect the designated way. *)
                stats.hint_missed_saving <- stats.hint_missed_saving + 1;
                (match t.probe with
                | None -> ()
                | Some p -> p (Wp_obs.Probe.Hint Missed_saving));
                full_access t stats cache addr
                  ~fill_policy:
                    (Cam_cache.Forced_way (Geometry.way_of_addr t.geometry addr))
            | Wp_tlb.Way_hint.Needs_reaccess ->
                (* Wasted single-way probe, then the real access: one
                   penalty cycle plus the probe energy (Section 4.1). *)
                stats.hint_reaccess <- stats.hint_reaccess + 1;
                stats.tag_comparisons <- stats.tag_comparisons + 1;
                (match t.probe with
                | None -> ()
                | Some p ->
                    p (Wp_obs.Probe.Hint Reaccess);
                    p (Wp_obs.Probe.Tag_comparisons 1));
                count_array t stats ~ways:1 ~reads:0;
                1
                + full_access t stats cache addr
                    ~fill_policy:Cam_cache.Victim_by_policy
          end
      in
      tlb_stall + access_stall
    end
  in
  t.prev_addr <- addr;
  stall

(* Batched fetch of one same-line run.

   The head instruction goes through the generic [fetch] (it may cross
   a line, miss, walk the TLB, resolve a hint...).  After it, the
   remaining [n - 1] fetches of the run are by construction same-line
   with their predecessor, so their effects are replicated wholesale:

   - elision on: each tail fetch reads one data word (from the L0 on
     the filter cache) and pokes the drowsy/memo stream state —
     counter bumps and one state update per run;
   - elision off (baseline): each tail fetch is a full TLB hit plus a
     full CAM hit on the line the head just made resident —
     [Cam_cache.lookup_line_run] collapses the replacement touches;
   - every other elision-off backend (and any probed engine) falls back
     to [n - 1] generic [fetch] calls, which are the definition.

   The [Stats.t] effects equal those of [n] successive [fetch] calls —
   the fast-vs-reference invariant the differ enforces. *)
let fetch_run t (stats : Stats.t) addr ~n =
  if n <= 0 then invalid_arg "Fetch_engine.fetch_run: n must be positive";
  let generic_tail m =
    let s = ref 0 in
    for j = 1 to m do
      s := !s + fetch t stats (addr + (j * Wp_isa.Instr.size_bytes))
    done;
    !s
  in
  let head_stall = fetch t stats addr in
  let m = n - 1 in
  match t.probe with
  | Some _ -> head_stall + generic_tail m
  | None ->
      if m = 0 then head_stall
      else if t.same_line_elision then begin
        let last = addr + (m * Wp_isa.Instr.size_bytes) in
        stats.fetches <- stats.fetches + m;
        stats.same_line_fetches <- stats.same_line_fetches + m;
        (match t.backend with
        | B_filter _ -> ()
        | B_baseline _ | B_way_placement _ | B_way_memo _ | B_way_predict _ ->
            stats.data_reads <- stats.data_reads + m);
        let stall_extra =
          if t.prev_set >= 0 then
            note_run t stats ~set:t.prev_set ~way:t.prev_way ~m
          else 0
        in
        (* The memo stream advances to the run's last address — the same
           state [m] successive [note_same_line] calls leave. *)
        (match t.backend with
        | B_way_memo memo -> Way_memo.note_same_line memo last
        | B_baseline _ | B_way_placement _ | B_way_predict _ | B_filter _ -> ());
        t.prev_addr <- last;
        head_stall + stall_extra
      end
      else begin
        match t.backend with
        | B_baseline cache ->
            let last = addr + (m * Wp_isa.Instr.size_bytes) in
            let assoc = t.geometry.Geometry.assoc in
            stats.fetches <- stats.fetches + m;
            stats.full_fetches <- stats.full_fetches + m;
            stats.icache_hits <- stats.icache_hits + m;
            stats.tag_comparisons <- stats.tag_comparisons + (m * assoc);
            stats.tag_ways <- stats.tag_ways + (m * assoc);
            stats.data_reads <- stats.data_reads + m;
            let way = Cam_cache.lookup_line_run_way cache last ~n:m in
            let set = Geometry.set_index t.geometry last in
            let stall_extra = note_run t stats ~set ~way ~m in
            t.prev_set <- set;
            t.prev_way <- way;
            t.prev_addr <- last;
            head_stall + stall_extra
        | B_way_placement _ | B_way_memo _ | B_way_predict _ | B_filter _ ->
            head_stall + generic_tail m
      end

let reset_stream t =
  t.prev_addr <- -1;
  t.prev_set <- -1;
  t.prev_way <- -1;
  match t.backend with
  | B_way_memo memo -> Way_memo.reset_stream memo
  | B_way_placement { hint; _ } -> Wp_tlb.Way_hint.reset hint
  | B_baseline _ | B_way_predict _ | B_filter _ -> ()

let flush t =
  (match t.probe with None -> () | Some p -> p Wp_obs.Probe.Flush);
  Wp_tlb.Tlb.flush t.tlb;
  (match t.backend with
  | B_baseline cache -> Cam_cache.flush cache
  | B_way_placement { cache; hint; _ } ->
      Cam_cache.flush cache;
      Wp_tlb.Way_hint.reset hint
  | B_way_memo memo -> Way_memo.flush memo
  | B_way_predict predictor -> Way_predict.flush predictor
  | B_filter { filter; l1; _ } ->
      Filter_cache.flush filter;
      Cam_cache.flush l1);
  Option.iter Drowsy.reset t.drowsy;
  t.prev_addr <- -1;
  t.prev_set <- -1;
  t.prev_way <- -1

(* The OS resizes the way-placement area at run time (paper Section
   4.1): way-placement bits in the I-TLB and line placements in the
   cache are stale for the new area, so both are flushed. *)
let resize_area t ~area_bytes =
  match t.backend with
  | B_way_placement wp ->
      if area_bytes <= 0 then
        invalid_arg "Fetch_engine.resize_area: area must be positive";
      (match t.probe with
      | None -> ()
      | Some p ->
          p (Wp_obs.Probe.Resize { area_bytes });
          p Wp_obs.Probe.Flush);
      wp.area_bytes <- area_bytes;
      t.window.warea <- area_bytes;
      Wp_tlb.Tlb.flush t.tlb;
      Cam_cache.flush wp.cache;
      Wp_tlb.Way_hint.reset wp.hint;
      t.prev_addr <- -1;
      t.prev_set <- -1;
      t.prev_way <- -1
  | B_baseline _ | B_way_memo _ | B_way_predict _ | B_filter _ ->
      invalid_arg "Fetch_engine.resize_area: not a way-placement config"

(* Canonical machine-state fingerprint for the steady-state
   fast-forward detector: a backend discriminant, the scheme-specific
   cache state, the way-placement area and hint, the I-TLB, the drowsy
   wake state (relative to [now], the current fetch count) and the
   previous-fetch stream context.  Equal fingerprints at two trace
   positions with identical upcoming block patterns imply identical
   future behaviour — counters, stalls and every energy charge. *)
let fingerprint t ~now ~add =
  (match t.backend with
  | B_baseline cache ->
      add 0;
      Cam_cache.fingerprint cache ~add
  | B_way_placement { cache; hint; area_bytes } ->
      add 1;
      add area_bytes;
      add (if Wp_tlb.Way_hint.predict hint then 1 else 0);
      Cam_cache.fingerprint cache ~add
  | B_way_memo memo ->
      add 2;
      Way_memo.fingerprint memo ~add
  | B_way_predict predictor ->
      add 3;
      Way_predict.fingerprint predictor ~add
  | B_filter { filter; l1 } ->
      add 4;
      Filter_cache.fingerprint filter ~add;
      Cam_cache.fingerprint l1 ~add);
  add t.window.wbase;
  add t.window.warea;
  Wp_tlb.Tlb.fingerprint t.tlb ~add;
  (match t.drowsy with None -> () | Some d -> Drowsy.fingerprint d ~now ~add);
  add t.prev_addr;
  add t.prev_set;
  add t.prev_way

(* Drowsy passthroughs for the fast-forward engine; no-ops without a
   drowsy policy. *)
let set_drowsy_recorder t r =
  match t.drowsy with None -> () | Some d -> Drowsy.set_recorder d r

let drowsy_advance_touched t ~since ~delta =
  match t.drowsy with
  | None -> ()
  | Some d -> Drowsy.advance_touched d ~since ~delta

let drowsy_replay_awake t a ~len ~iters =
  match t.drowsy with
  | None -> ()
  | Some d -> Drowsy.replay_awake d a ~len ~iters

(* Multiprogramming passthroughs: the drowsy clock is the charging
   process's fetch counter, so the scheduler re-expresses timestamps
   ({!Drowsy.rebase}) or drops everything drowsy ({!Drowsy.sleep_all})
   whenever the charging [Stats.t] changes. *)
let drowsy_rebase t ~old_now ~new_now =
  match t.drowsy with
  | None -> ()
  | Some d -> Drowsy.rebase d ~old_now ~new_now

let drowsy_sleep_all t ~now =
  match t.drowsy with None -> () | Some d -> Drowsy.sleep_all d ~now

(* End-of-run leakage, the one energy that is not a count of events:
   line-ticks are counted in fetches and rescaled to cycles; without a
   drowsy policy every line leaks at the awake rate for the whole run.
   [now_fetches] overrides the drowsy clock reading for callers whose
   [Stats.t] did not count the fetches (the multiprogramming layer's
   system account). *)
let leakage_pj ?now_fetches t (stats : Stats.t) ~cycles =
  if not t.leakage_enabled then 0.0
  else begin
    let lines = float_of_int (Geometry.lines t.geometry) in
    let awake_fraction =
      match t.drowsy with
      | None -> 1.0
      | Some d ->
          let now =
            match now_fetches with Some n -> n | None -> stats.fetches
          in
          if now = 0 then 1.0
          else Drowsy.awake_line_ticks d ~now /. Drowsy.total_line_ticks d ~now
    in
    let p = t.energy_params in
    let rate =
      p.Wp_energy.Params.leak_awake_pj_per_line_cycle
      *. (awake_fraction
         +. ((1.0 -. awake_fraction) *. p.Wp_energy.Params.leak_drowsy_factor))
    in
    let pj = lines *. float_of_int cycles *. rate in
    (match t.probe with None -> () | Some p -> p (Wp_obs.Probe.Leakage { pj }));
    pj
  end
