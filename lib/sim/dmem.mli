(** The data-memory side: D-cache and D-TLB.

    Kept identical across all schemes (the paper varies only the
    instruction cache); it exists so that cycle counts and total-energy
    figures (the ED product) include a realistic data side.  Stores are
    modelled write-through with no write-back accounting — a
    simplification that cancels out of every normalised metric.

    Because it is scheme-invariant, a single-process run does not
    replay it block by block: {!Dside} runs it once per (trace, D-side
    configuration, data seed) and the run adds the totals at
    finalisation.  A live instance serves that pass, the reference
    step, probed runs and [Mp.Machine]. *)

type t

val create : ?probe:Wp_obs.Probe.t -> Config.t -> t
(** [probe] observes one [Dcache_access] event per access plus
    [Dtlb_miss] events; pure observation. *)

val access : t -> Stats.t -> Wp_isa.Addr.t -> write:bool -> int
(** Perform the access and count it (the counters fix its D-cache,
    D-TLB and memory energy); returns the pipeline stall in cycles. *)

val flush : t -> unit

val flush_tlb : t -> unit
(** Invalidate only the D-TLB (context-switch shootdown on an
    ASID-less core); D-cache contents are physical and survive. *)

val fingerprint : t -> add:(int -> unit) -> unit
(** Canonical state fingerprint (D-cache + D-TLB) for the steady-state
    fast-forward detector, on streams whose data side is live
    ([Mp.Machine] processes); single-process runs have no data state to
    fingerprint. *)
