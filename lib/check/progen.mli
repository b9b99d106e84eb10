(** Randomized well-formed XR32 program generation for the
    differential fuzzer.

    A fuzz case is just a {!Wp_workloads.Spec.t}: {!Wp_workloads.Codegen}
    is deterministic in the spec, so generating a random {e spec} is
    generating a random closed ICFG — loops, calls, returns and all —
    and a failing case is reproducible (and shrinkable) from its seed
    alone. *)

val spec_of_seed : int -> Wp_workloads.Spec.t
(** The fuzz program for a seed: {!Wp_workloads.Spec.random} on the
    seed's stream — a pure function, always valid under
    {!Wp_workloads.Spec.validate}. *)

val size : Wp_workloads.Spec.t -> int
(** Shrink metric: static-code estimate plus dynamic budgets.  Every
    {!shrink_candidates} result is strictly smaller, so shrinking
    terminates. *)

val shrink_candidates : Wp_workloads.Spec.t -> Wp_workloads.Spec.t list
(** Valid specs strictly smaller than the input (halved trace budgets,
    fewer functions, fewer/shorter blocks, shallower loops, ...), most
    aggressive first.  Empty once the spec is minimal. *)

val minimize :
  failing:(Wp_workloads.Spec.t -> bool) -> Wp_workloads.Spec.t -> Wp_workloads.Spec.t
(** Greedy shrink: repeatedly replace the spec with the first candidate
    that still satisfies [failing], until none does.  Deterministic; the
    result still fails (assuming the input did) and is locally minimal:
    every candidate of the result passes. *)

(** {2 Process mixes}

    Shrinking for random mixes ({!Wp_mp.Mix.of_seed}) works at the spec
    level — drop a whole process, or shrink one member with
    {!shrink_candidates} — so a failing mp fuzz case minimises the same
    way a single-program case does. *)

val mix_size : Wp_mp.Mix.t -> int
(** Shrink metric: member {!size}s plus one per process, so dropping a
    process strictly decreases it.  Every {!mix_shrink_candidates}
    result is strictly smaller. *)

val mix_shrink_candidates : Wp_mp.Mix.t -> Wp_mp.Mix.t list
(** Mixes strictly smaller than the input: each one-process drop (when
    more than one remains), then each member replaced by each of its
    {!shrink_candidates}. *)

val minimize_mix : failing:(Wp_mp.Mix.t -> bool) -> Wp_mp.Mix.t -> Wp_mp.Mix.t
(** Greedy shrink over {!mix_shrink_candidates}; same contract as
    {!minimize}. *)
