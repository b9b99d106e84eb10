(** Content-addressed result store: the daemon's memoisation table.

    A result is keyed by the MD5 of the marshalled
    [(program, layout order, Config.t)] triple — the complete input of
    a simulation, not the benchmark's {e name} — so a regenerated
    program or a different layout can never alias a stale entry
    (generalising the sweep engine's marshalled-config keys to content
    addressing).  Values are {!Wp_sim.Stats.t}, held in a hot
    in-memory table and, when the store was created with a directory,
    persisted to disk so they survive restarts.

    The disk format is defensive: a magic header naming the
    {!Wp_sim.Stats.layout} ({!magic}), the payload digest,
    then the marshalled stats, written to a temporary file in the same
    directory and [rename]d into place — atomic on POSIX, so two
    daemons pointed at the same directory never clobber each other
    into a torn entry.  A corrupt, truncated or zero-length entry is
    detected on load, evicted (unlinked), and reported as a miss: the
    daemon recomputes instead of serving garbage.  So is an entry
    written under another stats layout, before its payload is ever
    unmarshalled.

    All operations are thread- and domain-safe. *)

type t

val create : ?dir:string -> unit -> (t, string) result
(** Memory-only without [dir]; with it, the directory is created if
    missing (one level) and entries persist there.  [Error] if the
    directory cannot be created or is not writable. *)

val magic : string
(** The disk entry header: ["wpstore-"], 16 hex digits of the digest of
    {!Wp_sim.Stats.layout}, and a newline. *)

val dir : t -> string option

val key :
  program:Wp_workloads.Codegen.t ->
  order:Wp_cfg.Basic_block.id array ->
  config:Wp_sim.Config.t ->
  string
(** The content address (MD5 hex of the marshalled triple). *)

val stats_digest : Wp_sim.Stats.t -> string
(** MD5 hex of the marshalled stats — the bit-identity token carried
    in protocol responses. *)

val find : t -> string -> (Wp_sim.Stats.t * [ `Memory | `Disk ]) option
(** Memory first, then disk; a disk hit is promoted into memory.
    Distinct calls that hit memory return the {e same} stats value —
    callers must not mutate it. *)

val put : t -> string -> Wp_sim.Stats.t -> unit
(** Record into memory and (if persistent) to disk.  An existing disk
    entry is left alone — the store is content-addressed, so it can
    only hold the same bytes.  Disk write failures degrade silently to
    a memory-only entry (counted in {!write_failures}): persistence is
    an optimisation, never a correctness requirement. *)

val memory_entries : t -> int
val disk_entries : t -> int
(** Entries currently persisted ([0] for a memory-only store). *)

val evictions : t -> int
(** Corrupt / truncated disk entries detected and removed so far. *)

val write_failures : t -> int
