(** Drowsy lines (Flautner et al., ISCA'02 / Kaxiras et al., ISCA'01),
    the leakage-saving family the paper calls orthogonal to
    way-placement (Section 7: "these approaches ... can therefore be
    used together for additional energy savings").

    A line that has not been accessed for [window] ticks drops into a
    state-preserving low-leakage (drowsy) mode; touching a drowsy line
    costs a wake-up (one cycle plus a small energy).  The module
    tracks, per cache line, how long it spent awake, so the leakage
    accountant can split line-ticks into awake and drowsy at the end
    of a run.  Ticks are fetch counts (the fetch engine's natural
    clock); the accountant rescales them to cycles. *)

type t

val create : ?probe:Wp_obs.Probe.t -> Geometry.t -> window:int -> t
(** [probe] observes one [Drowsy_wake] event per woken access; pure
    observation.
    @raise Invalid_argument unless [window > 0]. *)

val window : t -> int

val note_access : t -> now:int -> set:int -> way:int -> bool
(** Record an access to a line at tick [now]; returns [true] when the
    line was drowsy and had to be woken (charge the wake penalty). *)

val awake_line_ticks : t -> now:int -> float
(** Total line-ticks spent awake up to [now]: every access keeps its
    line awake for at most [window] further ticks. *)

val total_line_ticks : t -> now:int -> float
(** [lines x now]. *)

val set_recorder : t -> (int -> unit) option -> unit
(** Install (or clear) an observer of every awake increment: the
    integer tick count each access adds to the awake accumulator.  The
    fast-forward engine records one loop iteration's increments and
    replays them with {!replay_awake}. *)

val fingerprint : t -> now:int -> add:(int -> unit) -> unit
(** Emit a canonical fingerprint of the wake state at tick [now]: each
    line's inter-access gap capped at [window + 1] ([-1] for a
    never-touched line).  All gaps beyond the window are behaviourally
    identical (asleep; next touch wakes and credits [window] ticks), so
    they share one canonical value.  Equal fingerprints imply identical
    future wake decisions and awake increments. *)

val advance_touched : t -> since:int -> delta:int -> unit
(** Shift the timestamp of every line touched at or after tick [since]
    forward by [delta] ticks — the fast-forward materialisation step
    that makes the raw state equal to a full replay's. *)

val replay_awake : t -> int array -> len:int -> iters:int -> unit
(** [replay_awake t a ~len ~iters] adds [iters] repetitions of the
    recorded awake increments [a.(0 .. len-1)] to the (integer) awake
    accumulator — exactly what the equivalent {!note_access} calls
    would have added. *)

val rebase : t -> old_now:int -> new_now:int -> unit
(** Re-express every touched line's timestamp on a new clock, preserving
    each line's (canonicalised) inter-access gap: a line last touched
    [g] ticks before [old_now] behaves, after the call, exactly like a
    line last touched [g] ticks before [new_now].  Lines whose gap
    reaches past the new clock's origin have their completed awake
    portion accounted immediately and revert to never-touched.  The
    multiprogramming layer calls this when the fetch clock (the charging
    process's fetch counter) changes at a context switch; a no-op-
    equivalent when [old_now = new_now]. *)

val sleep_all : t -> now:int -> unit
(** Close every touched line's open awake tail into the accumulator and
    drop the whole cache drowsy — the flush-on-switch drowsy policy. *)

val reset : t -> unit
