(** Counters and energy for one simulation run.

    Every energy-bearing event is an integer counter; the five energy
    buckets are priced from them once, when the run finalises
    ({!price}), and stay zero until then. *)

type t = {
  (* instruction fetch *)
  mutable fetches : int;
  mutable same_line_fetches : int;  (** served with the tag side off *)
  mutable wp_fetches : int;  (** single-way (way-placed) accesses *)
  mutable full_fetches : int;  (** all-way searches *)
  mutable icache_hits : int;
  mutable icache_misses : int;
  mutable tag_comparisons : int;
  mutable tag_ways : int;  (** I-cache tag ways searched (L1; not the filter's L0) *)
  mutable data_reads : int;
      (** I-cache data words read (L1; way-prediction re-reads included) *)
  (* way-hint bit (paper Section 4.1) *)
  mutable hint_correct_wp : int;
  mutable hint_correct_normal : int;
  mutable hint_missed_saving : int;
  mutable hint_reaccess : int;  (** wrong "way-placed" hints: +1 cycle each *)
  (* way prediction (Inoue et al.) *)
  mutable waypred_correct : int;
  mutable waypred_wrong : int;  (** +1 cycle each *)
  (* filter cache (Kin et al.) *)
  mutable l0_hits : int;
  mutable l0_misses : int;  (** +1 cycle each *)
  (* drowsy lines (Flautner et al.) *)
  mutable drowsy_wakes : int;  (** +1 cycle each *)
  (* way-memoization *)
  mutable link_follows : int;
  mutable link_writes : int;
  mutable links_invalidated : int;
  (* translation *)
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  (* data side *)
  mutable dcache_accesses : int;
  mutable dcache_misses : int;
  (* outcome *)
  mutable cycles : int;
  mutable retired_instrs : int;
  energy : float array;
      (** picojoules, {!Wp_energy.Price.bucket_index}ed; written by
          {!price} *)
}

val create : unit -> t

val price : t -> Wp_energy.Price.t -> leakage_pj:float -> unit
(** Set the energy buckets to the priced {!counts} (plus [leakage_pj]
    in the I-cache bucket).  Called once, when the run finalises. *)

val energy_pj : t -> Wp_energy.Price.bucket -> float
val icache_energy_pj : t -> float
val total_energy_pj : t -> float
val icache_miss_rate : t -> float
val same_line_rate : t -> float
val hint_accuracy : t -> float
(** Correct hints over all non-same-line fetches (1.0 when the hint was
    never consulted). *)

val snapshot_ints : t -> int array
(** All integer counters, in a fixed order understood by
    {!add_scaled_delta}.  The fast-forward engine snapshots the
    counters around one recorded loop iteration and scales the delta by
    the number of skipped iterations. *)

val add_scaled_delta : t -> before:int array -> after:int array -> times:int -> unit
(** [add_scaled_delta t ~before ~after ~times] adds
    [times * (after - before)] to every integer counter, where the two
    snapshots come from {!snapshot_ints}.  Counters are pure sums, so
    this is exactly what [times] repetitions of the recorded iteration
    would have accumulated.
    @raise Invalid_argument on snapshots of the wrong length. *)

val layout : string
(** The names of every counter and energy bucket, in field order — the
    same tables {!equal} walks.  Marshalled [t] values are only
    readable by code with the same layout; persistent stores key their
    format on this string. *)

val equal : t -> t -> bool
(** Field-by-field equality over every counter and every energy bucket.
    Floats are compared exactly ([Float.equal], no tolerance): two runs
    are equal only when they are bit-identical, which is what the
    sweep-engine and differential tests assert. *)

val pp_diff : Format.formatter -> t * t -> unit
(** Print only the fields on which the two runs disagree, one
    ["name: left <> right"] line each (["(no differing fields)"] when
    {!equal}).  The companion to {!equal} for test failure output. *)

val pp : Format.formatter -> t -> unit
val pp_brief : Format.formatter -> t -> unit
