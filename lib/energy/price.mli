(** Energy as priced event counts.

    The model is the paper's own (Section 5, CACTI-style per-access
    energies): every energy-bearing event is counted as an integer
    during the run, and the run is priced once, at the end, as
    Σ count × per-event energy against a table built for one machine
    configuration.  Integer counts make every execution path — the
    per-instruction loop, the block-batched loop, loop fast-forward and
    snapshot-cache reuse — agree by integer equality; pricing the same
    counts with the same table then gives bit-identical picojoules.

    Buckets follow the paper's reporting: "instruction cache energy"
    (Figures 4a, 5a, 6a) is the [Icache] bucket alone; the ED product
    (Figures 4b, 5b, 6b) uses the total over all buckets times the
    cycle count. *)

type bucket = Icache | Itlb | Dcache | Memory | Core

val buckets : bucket list
(** All buckets, in {!bucket_index} order. *)

val bucket_index : bucket -> int
(** Dense index 0..4 into the arrays {!price} returns. *)

val bucket_name : bucket -> string

(** A run's (or a window's) energy-bearing events.  Each is charged
    as documented; the misses also read memory, once each. *)
type counts = {
  fetches : int;  (** each streams its word through the L0, if any *)
  same_line_fetches : int;
      (** tag side elided; every other fetch looks up the I-TLB *)
  tag_ways : int;  (** I-cache tag ways searched *)
  data_reads : int;  (** I-cache data words read *)
  icache_misses : int;  (** each fills an I-cache line *)
  link_writes : int;  (** way-memoization link writes *)
  l0_probes : int;  (** filter-cache L0 probes (direct-mapped: one way) *)
  drowsy_wakes : int;
  itlb_misses : int;  (** page walks *)
  dtlb_misses : int;
  dcache_accesses : int;  (** each a D-TLB lookup, a full search and a word *)
  dcache_misses : int;  (** each fills a D-cache line *)
  cycles : int;  (** everything outside the memory subsystem, per cycle *)
}

type t
(** The per-event energies of one configuration. *)

val make :
  Params.t ->
  icache:Wp_cache.Geometry.t ->
  dcache:Wp_cache.Geometry.t ->
  itlb_entries:int ->
  dtlb_entries:int ->
  page_bytes:int ->
  memo:bool ->
  l0:Wp_cache.Geometry.t option ->
  t
(** [memo] scales I-cache data reads and fills by the way-memoization
    link overhead ({!Cam_energy.t.memo_data_factor}); [l0] is the
    filter cache's L0 geometry, if the machine has one. *)

val price : t -> counts -> leakage_pj:float -> float array
(** The five buckets, {!bucket_index}ed.  [leakage_pj] (end-of-run
    I-cache leakage, zero unless the configuration accounts for it)
    is added to the I-cache bucket last. *)
