(** Process mixes for the multiprogramming layer.

    A mix is an ordered list of processes, each carrying its own
    workload specification, a flag saying whether its code is
    way-placed (compiled with the placement pass and mapped into a
    way-placement window), and a static priority for the optional
    priority scheduler.  The mix plus the machine {!Wp_sim.Config.t}
    and the scheduler options fully determine a multiprogrammed run —
    the serve daemon content-addresses results on exactly that
    triple. *)

type coverage = All_placed | Half_placed | None_placed

type proc = {
  pname : string;
  spec : Wp_workloads.Spec.t;
  placed : bool;
      (** way-placed: compiled with the placement pass and dispatched
          with a live way-placement window (only meaningful under a
          [Way_placement] machine scheme) *)
  priority : int;  (** higher runs first under the priority scheduler *)
}

type t = proc list

val coverage_name : coverage -> string
val coverage_of_string : string -> (coverage, string) result

val apply_coverage : coverage -> t -> t
(** Overwrite every [placed] flag: all, every second process (even
    indices), or none. *)

val of_specs : ?coverage:coverage -> Wp_workloads.Spec.t list -> t
(** All priorities 0; [coverage] defaults to [All_placed]. *)

val of_names : ?coverage:coverage -> string list -> (t, string) result
(** Look the names up in the MiBench model suite (including the loop
    variants). *)

val validate : t -> (unit, string) result
(** Non-empty and every member spec valid. *)

val pp : Format.formatter -> t -> unit

val of_seed : int -> t
(** A random mix, a pure function of its seed: 2-4
    {!Wp_workloads.Spec.random} members with trimmed trace budgets,
    3 in 4 way-placed, priorities 0-2.  Always valid under {!validate}.
    The draws are frozen: ["random:SEED"] mixes name stored daemon
    results and fuzz cases. *)

val generate : Wp_workloads.Rng.t -> name:string -> t
(** The generator underneath {!of_seed}, on a caller-owned stream. *)

val parse : mix:string -> coverage:string -> (t, string) result
(** The mix syntax the CLI and the daemon accept: comma-separated
    MiBench names, or ["random:SEED"] for {!of_seed}.  [coverage] is
    ["all"], ["half"], ["none"], or ["mix"] to keep the mix's own
    placement flags. *)
