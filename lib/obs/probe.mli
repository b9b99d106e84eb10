(** Probe bus: the event vocabulary the simulator can emit.

    A probe is just a sink function; instrumented modules hold a
    [Probe.t option] and emission sites pattern-match on it so that the
    event value is only ever allocated inside the [Some] branch.  With
    the probe absent every site costs one comparison and a branch —
    simulation results ([Stats.t]) are bit-identical either way, which
    [Check.Differ] enforces across the scheme grid.

    Counter-like events mirror the increments of [Sim.Stats] one for
    one, at the exact sites where the simulator bumps the corresponding
    field.  That makes window aggregation conservative by construction:
    summing any partition of the event stream reproduces the final
    statistics (see {!Sampler}). *)

type fetch_kind =
  | Same_line  (** sequential fetch within the last line, tag check elided *)
  | Way_placed  (** way-placement hit path: one comparator *)
  | Full  (** full CAM search over all ways *)
  | Link_follow  (** way-memoization link followed, no tag check *)

type hint_outcome = Correct_wp | Correct_normal | Missed_saving | Reaccess

type event =
  | Fetch of fetch_kind
  | Icache_access of { hit : bool }
  | L0_access of { hit : bool }  (** filter-cache L0 probe *)
  | Tag_comparisons of int
  | Tag_ways of int  (** I-cache tag ways searched (priced per way) *)
  | Data_reads of int  (** I-cache data words read *)
  | Tag_search of { ways : int }
      (** one CAM search precharging [ways] comparators; the per-window
          histogram of these is the ways-enabled distribution *)
  | Line_fill of { evicted : bool }
  | Hint of hint_outcome
  | Way_prediction of { correct : bool }
  | Link_write
  | Links_invalidated of int
  | Drowsy_wake
  | Itlb_miss
  | Dtlb_miss
  | Dcache_access of { miss : bool }
  | Leakage of { pj : float }
      (** end-of-run I-cache leakage — the one energy a run does not
          count as events *)
  | Retire of { cycles : int; instrs : int }
      (** cumulative cycle and instruction totals — the sampler's
          clock.  Emitted once per trace block on the block-batched
          fast step (so windows close on block boundaries), and once
          per instruction on the per-instruction reference step *)
  | Resize of { area_bytes : int }  (** way-placement area resized *)
  | Flush
  | Context_switch of { next : int }
      (** the multiprogramming scheduler dispatched process [next]
          (its index in the mix) after a context switch *)

type t = event -> unit
(** An event sink.  Must not raise. *)

val null : t
(** Discards every event. *)

val fetch_kind_name : fetch_kind -> string

val pp_event : Format.formatter -> event -> unit
