(** Per-(program, layout) precompiled replay tables for the simulator.

    A compiled trace computes once what replay would otherwise re-derive
    on every block visit: per basic block, the instruction array
    ([bodies], read by the reference step) and the block summary
    ([block_info]: start address, terminator, taken successor,
    memory-op positions), and, per cache-line size, the fast step's
    {e micro-trace plan} — each block folded into maximal same-line
    runs with pre-summed execute latencies, so the batched loop does no
    per-fetch div/mod and no per-instruction record chasing.

    A compiled trace is immutable after {!make} except for the
    line-size-keyed plan memo, which is mutex-guarded: prepared
    benchmarks (and their compiled traces) are shared across sweep and
    fuzzer domains. *)

type mem_op = {
  pos : int;  (** instruction index inside the block *)
  write : bool;
  locality : Wp_isa.Instr.data_locality;
}

type block_info = {
  start : Wp_isa.Addr.t;
  n_instrs : int;
  term_branch : bool;  (** terminator is a conditional branch *)
  term_pc : Wp_isa.Addr.t;  (** pc of the terminator *)
  taken_succ : int;  (** taken successor block id, [-1] if none *)
  mem : mem_op array;  (** loads/stores in program order *)
  seq_bytes : int;  (** data-stream sequential-cursor advance, bytes *)
  stride_bytes : int;  (** data-stream strided-cursor advance, bytes *)
  n_random : int;  (** random-locality accesses (RNG draws) *)
}

type plan_block = {
  runs : int array;
      (** maximal same-line run lengths, in order; sums to [n_instrs] *)
  run_cycles : int array;
      (** per run: summed execute latencies (base retire cycles) *)
}

type plan = plan_block array
(** indexed by block id, for one cache-line size *)

type t

val make :
  program:Wp_workloads.Codegen.t -> layout:Wp_layout.Binary_layout.t -> t

val matches :
  t -> program:Wp_workloads.Codegen.t -> layout:Wp_layout.Binary_layout.t -> bool
(** Physical identity with the compiled program/layout — the sanity
    check guarding a caller-supplied compiled trace. *)

val program : t -> Wp_workloads.Codegen.t
val layout : t -> Wp_layout.Binary_layout.t

val token : t -> int
(** Process-unique identity of this compiled trace, assigned at
    {!make}.  {!Snapshot_cache} scopes embed it, so converged-iteration
    effects recorded against one (program, layout) can only serve runs
    replaying the same compiled trace — sharing across sweep cells and
    serve requests happens exactly when they share the prepared
    benchmark. *)

val bodies : t -> Wp_isa.Instr.t array array
(** Instruction array per block id. *)

val info : t -> block_info array

val plan : t -> line_bytes:int -> plan
(** The micro-trace plan for one line size, computed on first request
    and memoised (thread-safe; exception-safe — the memo lock is never
    held across the computation).  Domains racing the first request for
    one line size may each compute the plan, but the memo dedups the
    inserts: all callers get the same shared plan.
    @raise Invalid_argument unless [line_bytes] is a positive power of
    two. *)
