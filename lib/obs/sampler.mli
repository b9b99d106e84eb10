(** Windowed timeline sampler.

    Consumes the {!Probe} event stream of one simulation run and
    aggregates it into fixed-cycle windows (default
    {!default_window_cycles}).  The sampler's clock is the cumulative
    [Retire] event; a window closes on the first retire at or past the
    next nominal boundary, so windows are contiguous ([end_cycle] of
    one is [start_cycle] of the next) and their cycle spans telescope
    to the run's total cycle count.

    Conservation law: every counter event mirrors a [Sim.Stats]
    increment at the site where the simulator performs it, so summing a
    column over all windows reproduces the final statistics exactly.
    Windows carry counts, not energy: [Sim.Timeline] prices them with
    the same function that prices the run, so pricing the summed counts
    gives the run's energy buckets bit for bit.  [Check.Differ] fuzzes
    this invariant; the unit tests pin it for baseline, way-placement
    and drowsy runs. *)

module Counter : sig
  type t =
    | Same_line_fetches
    | Wp_fetches
    | Full_fetches
    | Link_follows
    | Icache_hits
    | Icache_misses
    | L0_hits
    | L0_misses
    | Tag_comparisons
    | Tag_ways
    | Data_reads
    | Hint_correct_wp
    | Hint_correct_normal
    | Hint_missed_saving
    | Hint_reaccess
    | Waypred_correct
    | Waypred_wrong
    | Drowsy_wakes
    | Link_writes
    | Links_invalidated
    | Itlb_misses
    | Dtlb_misses
    | Dcache_accesses
    | Dcache_misses
    | Line_fills
    | Evictions

  val index : t -> int
  (** Dense index into [window.counters]. *)

  val name : t -> string
  val all : t list
  val count : int
end

type marker =
  | Resize of { cycle : int; area_bytes : int }
  | Flush of { cycle : int }
  | Switch of { cycle : int; next : int }
      (** context switch: process [next] dispatched at [cycle] *)

val marker_cycle : marker -> int

type window = {
  index : int;
  start_cycle : int;  (** cumulative cycles when the window opened *)
  end_cycle : int;  (** cumulative cycles when it closed *)
  retired : int;  (** instructions retired within the window *)
  counters : int array;  (** window-local deltas, [Counter.index]ed *)
  leakage_pj : float;  (** end-of-run leakage, in the window that saw it *)
  ways_hist : (int * int) list;
      (** CAM searches by ways precharged, ascending *)
  markers : marker list;  (** resizes and flushes, chronological *)
}

val get : window -> Counter.t -> int
val fetches : window -> int
val cycles : window -> int
val ipc : window -> float

val default_window_cycles : int
(** 10_000. *)

type t

val create : ?window_cycles:int -> unit -> t
(** Raises [Invalid_argument] if [window_cycles <= 0]. *)

val probe : t -> Probe.t
(** The sink to attach to a simulation run.  Events arriving after
    {!finish} are discarded. *)

val finish : t -> window list
(** Close the current window and return all windows in order.
    Idempotent. *)

val sum_counters : window list -> int array
