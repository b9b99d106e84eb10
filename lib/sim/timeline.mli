(** Timeline export: one row/track per sampler window.

    Two formats over the same {!Wp_obs.Sampler.window} list:

    - an RFC-4180 CSV (via {!Report}) with one row per window — cycle
      span, retired instructions, IPC, every counter delta, the
      ways-enabled distribution ("[ways:searches]" pairs), per-bucket
      energy and resize/flush markers;
    - a Chrome trace-event JSON file loadable in [chrome://tracing] or
      Perfetto: counter tracks ([ph = "C"]) per energy bucket plus IPC,
      fetches and misses, sampled at each window's start cycle, and
      global instant events ([ph = "i"]) for resizes and flushes.
      Timestamps are cycles (the trace's logical microsecond).

    Windows carry event counts; energy is priced here, per window, with
    the run's own price table ({!Config.prices}).  Summing the CSV's
    counter columns reproduces the run's final [Stats.t] — the
    sampler's conservation law — and pricing the summed counts
    ({!total_energy}) reproduces its energy buckets bit for bit. *)

val window_energy :
  Wp_energy.Price.t -> Wp_obs.Sampler.window -> float array
(** One window's energy, {!Wp_energy.Price.bucket_index}ed. *)

val total_energy :
  Wp_energy.Price.t -> Wp_obs.Sampler.window list -> float array
(** The energy of all windows' summed counts: for the windows of one
    run, [Float.equal] bucket by bucket to the run's {!Stats.energy_pj}
    under the same prices. *)

val csv_header : string list

val csv_rows : config:Config.t -> Wp_obs.Sampler.window list -> string list list

val write_csv :
  config:Config.t ->
  path:string ->
  Wp_obs.Sampler.window list ->
  (unit, string) result

val chrome_trace :
  ?process_name:string ->
  config:Config.t ->
  Wp_obs.Sampler.window list ->
  Report.json
(** The trace-event object ([{"traceEvents": [...]}]).  Every event
    carries the required [ph]/[ts]/[pid] fields and timestamps are
    non-decreasing in stream order.  [process_name] defaults to
    ["wayplace-sim"]. *)

val write_chrome :
  ?process_name:string ->
  config:Config.t ->
  path:string ->
  Wp_obs.Sampler.window list ->
  (unit, string) result
