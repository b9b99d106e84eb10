(** Synthetic data-address generation for loads and stores.

    Each memory instruction carries a locality class
    ({!Wp_isa.Instr.data_locality}); this module turns the class into a
    concrete address deterministically.  The stream depends only on the
    executed instruction sequence and the seed, so every scheme sees an
    identical data-side workload — D-cache behaviour can never
    contaminate the I-cache comparison — and a single-process run draws
    it once per trace ({!Dside}), not once per scheme. *)

type t

val create : seed:int -> t
val base_address : Wp_isa.Addr.t
(** Start of the simulated data segment (0x4000_0000), far from code. *)

val next : t -> Wp_isa.Instr.data_locality -> Wp_isa.Addr.t
(** @raise Invalid_argument on [No_data]. *)

val fingerprint : t -> add:(int -> unit) -> unit
(** Canonical stream-state fingerprint (cursors + RNG state) for the
    steady-state fast-forward detector, on streams whose data side is
    live ([Mp.Machine] processes).  The RNG state strictly advances per
    draw, so there loops with random-locality accesses never
    fingerprint equal — the conservative veto the detector needs.
    Single-process runs have no live stream, hence no such veto. *)

val advance_invariant : seq_bytes:int -> stride_bytes:int -> n_random:int -> bool
(** Whether a loop iteration with the given per-iteration access totals
    returns both cursors to their entry values (and draws no random
    numbers).  A cheap pre-filter for drivers with a live data side;
    convergence is always established by fingerprint equality, never
    assumed from this. *)
