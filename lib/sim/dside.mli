(** The data side of a single-process run, computed once per trace.

    The paper varies only the instruction cache: the D-cache, the D-TLB
    ({!Dmem}) and the data address stream ({!Data_stream}) are the same
    for every scheme.  In a single-process run every trace position
    retires exactly once and nothing on the instruction side reads the
    cycle count mid-run (the drowsy clock counts fetches), so the run's
    whole data-side contribution is a constant of (trace, D-side
    configuration, data seed): D accesses, D-cache misses and D-TLB
    misses, with stall cycles = misses x latency.  {!totals} computes
    it in one pass with a live {!Dmem} and {!Data_stream} and memoises
    it, so the schemes, repeats and grid cells replaying one trace
    share that pass, and their block loops carry no data side at all.

    Runs that need the data side per block keep it live through
    {!replay_block}: the reference step's oracle runs, probed runs
    (whose [Retire] timestamps include data stalls) and [Mp.Machine]
    (whose switch points depend on cycles and flush the D-TLB). *)

type t = {
  accesses : int;  (** D-cache accesses (one per load or store) *)
  misses : int;  (** D-cache misses *)
  tlb_misses : int;  (** D-TLB misses *)
}

val data_stream : Compiled_trace.t -> Data_stream.t
(** A fresh data address stream, seeded from the compiled program's
    spec — every run of the program draws the same addresses. *)

val replay_block :
  Dmem.t -> Data_stream.t -> Stats.t -> Compiled_trace.block_info -> int
(** Run one block's loads and stores, in program order, through the
    live data side, counting them in the stats; returns the block's
    data stall cycles. *)

val compute : Config.t -> blocks:int array -> Compiled_trace.t -> t
(** One pass of {!replay_block} over the block trace on a fresh
    {!Dmem} and {!data_stream}; not memoised. *)

val totals : Config.t -> blocks:int array -> Compiled_trace.t -> t
(** {!compute}, memoised on the physical block array (held weakly), the
    D-side configuration (D-cache geometry, replacement policy, D-TLB
    entries, page size) and the data seed.  A block array belongs to one
    traced program, and the memory operations a pass reads are the
    program's, not the layout's, so every layout compiled from the
    program shares the entry.  Thread-safe. *)

val add : Config.t -> Stats.t -> t -> int
(** Add the totals to the stats' D counters and return the stall
    cycles they cost under the configuration's latencies — exactly
    what the live data side would have added over the run. *)
