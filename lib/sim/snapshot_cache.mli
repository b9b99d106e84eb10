(** Cross-region reuse of converged fast-forward iterations.

    The steady-state engine ({!Steady_state}) proves an iteration's
    effects by fingerprint convergence: once the canonical machine
    state at two consecutive iteration boundaries is equal, the
    recorded iteration is exactly what every remaining in-pattern
    iteration will do.  That proof is not single-shot.  The converged
    (boundary fingerprint, pattern, effects) triple keeps holding
    wherever the same pattern is entered in the same observable state:
    a later region of the same run, the same hot loop re-entered after
    a context switch in an [Mp.Machine] quantum, or another cell of a
    sweep grid replaying the same compiled trace under the same
    configuration.  This cache stores those triples so a re-entry
    skips straight from its first boundary instead of re-recording
    iterations until convergence.

    Soundness is by key construction, not by trust: an entry's key
    covers (a) a {e scope} — the compiled trace's identity, the full
    marshalled configuration and the data-side mode, so effects
    recorded under one energy/latency/geometry parameterisation can
    never serve another, way-memoization's link-table fingerprints can
    never alias a plain CAM's, and effects recorded with a live data
    side (D counters and stalls included) never serve a run that adds
    its data side at finalisation — (b) the period's block-id
    sequence, and (c) every
    word of the boundary fingerprint.  The key's hash only indexes the
    table; on a hit the stored scope, pattern and fingerprint are all
    compared outright (the fingerprint word-for-word), so even a hash
    collision cannot break bit-identity.  The three-way fast-forward check
    ([Check.Differ.check_fastpath], [--check-fastforward]) runs with
    the cache attached and still demands exact {!Stats.equal}.

    The cache is bounded (LRU eviction) and thread-safe: one instance
    is shared across the domains of a {!Sweep} engine and across the
    serve daemon's executor. *)

type t

type entry = {
  e_fp : int array;  (** converged boundary fingerprint, exact words *)
  e_ints : int array;
      (** per-iteration {!Stats.snapshot_ints} delta, energy events
          included *)
  e_awake : int array;  (** drowsy awake increments of one iteration *)
  e_fetches : int;  (** fetches per iteration *)
  e_cycles : int;  (** cycles per iteration *)
  e_instrs : int;  (** retired instructions per iteration *)
}

type counters = {
  lookups : int;
  hits : int;
  inserts : int;
  evictions : int;
  entries : int;  (** current size *)
}

val create : ?capacity:int -> unit -> t
(** [capacity] (default 512) bounds the number of entries; inserting
    into a full cache evicts the least recently used entry. *)

val capacity : t -> int

type key
(** Everything that determines an iteration's effects, pre-hashed for
    the table.  The components are retained and re-verified on lookup,
    so the hash is an index, never a proof. *)

val key : scope:string -> period:int -> ids:int array -> fp:int array -> fp_len:int -> key
(** Key over the caller's scope string (compiled-trace token, config
    digest and data-side mode), the pattern (period and block-id sequence, [ids] borrowed
    — callers must not mutate it afterwards) and the boundary
    fingerprint ([fp_len] live words of [fp], hashed but not
    retained). *)

val find : t -> key:key -> fp:int array -> fp_len:int -> entry option
(** Lookup; a stored entry only matches if its scope and pattern equal
    the key's and its fingerprint words equal [fp.(0 .. fp_len)]
    exactly (hash collisions cannot produce a false hit).  A hit
    refreshes the entry's LRU position. *)

val add : t -> key:key -> entry -> unit
(** Insert (or replace) the entry, evicting the LRU entry if the cache
    is full.  The entry's arrays are owned by the cache afterwards —
    callers must pass freshly copied arrays. *)

val counters : t -> counters
val reset_counters : t -> unit
