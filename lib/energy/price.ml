type bucket = Icache | Itlb | Dcache | Memory | Core

let buckets = [ Icache; Itlb; Dcache; Memory; Core ]

let bucket_index = function
  | Icache -> 0
  | Itlb -> 1
  | Dcache -> 2
  | Memory -> 3
  | Core -> 4

let bucket_name = function
  | Icache -> "icache"
  | Itlb -> "itlb"
  | Dcache -> "dcache"
  | Memory -> "memory"
  | Core -> "core"

type counts = {
  fetches : int;
  same_line_fetches : int;
  tag_ways : int;
  data_reads : int;
  icache_misses : int;
  link_writes : int;
  l0_probes : int;
  drowsy_wakes : int;
  itlb_misses : int;
  dtlb_misses : int;
  dcache_accesses : int;
  dcache_misses : int;
  cycles : int;
}

type t = {
  tag_way_pj : float;
  data_read_pj : float;
  fill_pj : float;
  link_write_pj : float;
  l0_probe_pj : float;
  l0_read_pj : float;
  drowsy_wake_pj : float;
  itlb_lookup_pj : float;
  dcache_access_pj : float;
  dcache_fill_pj : float;
  memory_access_pj : float;
  core_cycle_pj : float;
}

let make (p : Params.t) ~icache ~dcache ~itlb_entries ~dtlb_entries
    ~page_bytes ~memo ~l0 =
  let ie = Cam_energy.of_geometry p icache in
  let de = Cam_energy.of_geometry p dcache in
  let memo_factor = if memo then ie.Cam_energy.memo_data_factor else 1.0 in
  let l0e = Option.map (Cam_energy.of_geometry p) l0 in
  {
    tag_way_pj = ie.Cam_energy.tag_search_per_way_pj;
    data_read_pj = ie.Cam_energy.data_word_pj *. memo_factor;
    fill_pj = ie.Cam_energy.line_fill_pj *. memo_factor;
    link_write_pj = ie.Cam_energy.link_write_pj;
    l0_probe_pj =
      (match l0e with Some e -> Cam_energy.tag_search e ~ways:1 | None -> 0.0);
    l0_read_pj =
      (match l0e with Some e -> e.Cam_energy.data_word_pj | None -> 0.0);
    drowsy_wake_pj = p.Params.drowsy_wake_pj;
    itlb_lookup_pj =
      Cam_energy.tlb_lookup_pj p ~entries:itlb_entries ~page_bytes;
    dcache_access_pj =
      Cam_energy.tlb_lookup_pj p ~entries:dtlb_entries ~page_bytes
      +. Cam_energy.tag_search de ~ways:dcache.Wp_cache.Geometry.assoc
      +. de.Cam_energy.data_word_pj;
    dcache_fill_pj = de.Cam_energy.line_fill_pj;
    memory_access_pj = p.Params.memory_access_pj;
    core_cycle_pj = p.Params.core_rest_pj_per_cycle;
  }

let price t c ~leakage_pj =
  let f = float_of_int in
  let icache =
    (f c.tag_ways *. t.tag_way_pj)
    +. (f c.data_reads *. t.data_read_pj)
    +. (f c.icache_misses *. t.fill_pj)
    +. (f c.link_writes *. t.link_write_pj)
    +. (f c.l0_probes *. t.l0_probe_pj)
    +. (f c.fetches *. t.l0_read_pj)
    +. (f c.drowsy_wakes *. t.drowsy_wake_pj)
    +. leakage_pj
  in
  [|
    icache;
    f (c.fetches - c.same_line_fetches) *. t.itlb_lookup_pj;
    (f c.dcache_accesses *. t.dcache_access_pj)
    +. (f c.dcache_misses *. t.dcache_fill_pj);
    f (c.icache_misses + c.itlb_misses + c.dtlb_misses + c.dcache_misses)
    *. t.memory_access_pj;
    f c.cycles *. t.core_cycle_pj;
  |]
