(** Benchmark specifications.

    A specification fully determines a synthetic benchmark: the shape
    of its code (functions, blocks, loops, calls), the statistics of
    its dynamic behaviour (hot set, branch bias, memory intensity) and
    its seed.  {!Mibench} provides 23 specifications mirroring the
    MiBench programs the paper evaluates. *)

type t = {
  name : string;
  seed : int;
  num_funcs : int;
  blocks_per_func_min : int;
  blocks_per_func_max : int;
  instrs_per_block_min : int;
  instrs_per_block_max : int;
  max_loop_depth : int;  (** nesting of generated loops *)
  avg_loop_trips : int;  (** expected iterations of one loop level *)
  hot_func_fraction : float;
      (** fraction of functions that form the hot working set *)
  hot_call_bias : float;
      (** probability that a call site targets a hot function *)
  if_taken_bias : float;  (** mean taken probability of if-branches *)
  mem_ratio : float;  (** loads+stores as a fraction of instructions *)
  mac_ratio : float;  (** multiply-accumulate fraction *)
  data_working_set_bytes : int;
  trace_blocks_large : int;  (** dynamic block budget, evaluation input *)
  trace_blocks_small : int;  (** dynamic block budget, training input *)
}

val validate : t -> (unit, string) result
(** Range checks on every field. *)

val random : Rng.t -> name:string -> t
(** A random valid specification drawn from the stream: shapes span
    one-function straight-line code up to ~15 functions with nested
    loops and layered calls, with trace budgets small enough that one
    program simulates in milliseconds.  The differential fuzzer's
    programs and random process mixes are built from it; the draws are
    frozen, because seeds name stored results and fuzz cases. *)

val static_code_estimate_bytes : t -> int
(** Rough expected binary size, for documentation and tests. *)

val pp : Format.formatter -> t -> unit
