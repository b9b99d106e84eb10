type t = {
  cache : Wp_cache.Cam_cache.t;
  tlb : Wp_tlb.Tlb.t;
  memory_latency : int;
  tlb_walk_latency : int;
  probe : Wp_obs.Probe.t option;
}

let no_wp _ = false

let create ?probe (config : Config.t) =
  {
    (* The D-cache's own CAM gets no probe: [Tag_search]/[Line_fill]
       events are an I-side signal (the ways-enabled distribution). *)
    cache =
      Wp_cache.Cam_cache.create config.dcache ~replacement:config.replacement;
    tlb =
      Wp_tlb.Tlb.create ~entries:config.dtlb_entries
        ~page_bytes:config.page_bytes;
    memory_latency = config.memory_latency;
    tlb_walk_latency = config.tlb_walk_latency;
    probe;
  }

(* Every access is one D-TLB lookup plus a full-width search and a word;
   a miss adds a line fill and a memory read, a TLB miss a page walk.
   The counters below fix all of those charges. *)
let access t (stats : Stats.t) addr ~write:_ =
  stats.dcache_accesses <- stats.dcache_accesses + 1;
  let tlb_bits = Wp_tlb.Tlb.lookup_bits t.tlb addr ~wp_bit_of_page:no_wp in
  let tlb_stall =
    if tlb_bits land 1 = 1 then 0
    else begin
      stats.dtlb_misses <- stats.dtlb_misses + 1;
      (match t.probe with None -> () | Some p -> p Wp_obs.Probe.Dtlb_miss);
      t.tlb_walk_latency
    end
  in
  let hit_way = Wp_cache.Cam_cache.lookup_full_way t.cache addr in
  (match t.probe with
  | None -> ()
  | Some p -> p (Wp_obs.Probe.Dcache_access { miss = hit_way < 0 }));
  let miss_stall =
    if hit_way >= 0 then 0
    else begin
      stats.dcache_misses <- stats.dcache_misses + 1;
      let _way, _evicted =
        Wp_cache.Cam_cache.fill_absent t.cache addr
          Wp_cache.Cam_cache.Victim_by_policy
      in
      t.memory_latency
    end
  in
  tlb_stall + miss_stall

let flush t =
  Wp_cache.Cam_cache.flush t.cache;
  Wp_tlb.Tlb.flush t.tlb

(* Context-switch shootdown: only the D-TLB is invalidated (no ASIDs);
   D-cache contents are physical and survive across processes. *)
let flush_tlb t = Wp_tlb.Tlb.flush t.tlb

(* Canonical fingerprint of the data side (D-cache + D-TLB) for the
   steady-state fast-forward detector. *)
let fingerprint t ~add =
  Wp_cache.Cam_cache.fingerprint t.cache ~add;
  Wp_tlb.Tlb.fingerprint t.tlb ~add
