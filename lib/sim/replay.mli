(** The block engine.  {!Simulator} and [Mp.Machine] are drivers over
    it: they choose which trace blocks run in which order, with resize,
    probe and context-switch hooks between blocks and fast-forward on
    top, but a block itself only ever runs through one of two steps —
    {!fast_step}, which every production run takes, or
    {!reference_step}, the per-instruction oracle taken only for
    [reference_only].  Both leave exactly equal {!Stats.t} effects and
    cycle counts, the invariant the differential fuzzer enforces. *)

type machine = {
  engine : Fetch_engine.t;
  dmem : Dmem.t;
  btb : Wp_pipeline.Btb.t;  (** shared by every stream and the core model *)
  mispredict_penalty : int;
}

val machine :
  ?probe:Wp_obs.Probe.t -> Config.t -> code_base:Wp_isa.Addr.t -> machine
(** [probe] is attached to the fetch and data engines.
    @raise Invalid_argument if the configuration is invalid. *)

val core : ?probe:Wp_obs.Probe.t -> machine -> Wp_pipeline.Core_model.t
(** A core model on the machine's BTB, for {!reference_step}; [probe]
    sees its per-instruction [Retire] ticks. *)

type stream = {
  compiled : Compiled_trace.t;
  blocks : int array;  (** the block trace *)
  info : Compiled_trace.block_info array;
  plan : Compiled_trace.plan;
  data : Data_stream.t option;
      (** the live data address stream, seeded from the compiled
          program's spec; [None] when the data side is not replayed
          block by block and the driver adds the trace's {!Dside}
          totals at finalisation instead *)
  stats : Stats.t;  (** receives every counter the stream's blocks bump *)
  cycles : int ref;  (** cycles retired so far *)
  instrs : int ref;  (** instructions retired so far *)
}
(** One program's replay state. *)

val stream :
  ?live_data:bool ->
  Config.t -> trace:Wp_workloads.Tracer.trace -> stats:Stats.t ->
  Compiled_trace.t -> stream
(** [live_data] (default [true]) replays the data side block by block
    through the machine's {!Dmem}; [false] leaves it out of the block
    steps, the driver then owing the run's {!Dside.add}. *)

val finish : stream -> unit
(** Store the stream's cycle and instruction totals in its stats. *)

val fast_step : machine -> stream -> (int -> unit)
(** [fast_step m s] is the stream's block-batched step; build it once
    per stream.  Applied to a trace position it runs that block
    (same-line runs through {!Fetch_engine.fetch_run}, then the memory
    ops in program order through {!Dside.replay_block} when the stream's
    data side is live, one predictor update) and adds its cycles and
    instructions to the stream's totals.  A probed engine still emits
    every counter event; [Retire] ticks are the driver's. *)

val reference_step :
  Wp_pipeline.Core_model.t -> machine -> stream -> (int -> unit)
(** [reference_step core m s] is the stream's per-instruction step:
    each instruction goes through {!Fetch_engine.fetch}, the data side
    and {!Wp_pipeline.Core_model.retire}.  Same contract as
    {!fast_step}.
    @raise Invalid_argument if the stream's data side is not live. *)

val ff_ctx :
  ?cycle_headroom:(unit -> int) ->
  ?report:Steady_state.report ->
  policy:Steady_state.policy ->
  cache:Snapshot_cache.t option ->
  Config.t ->
  machine ->
  stream ->
  Steady_state.ctx
(** The stream's fast-forward context: {!fast_step} as [exec], the
    stream's totals as accumulators, a fingerprint over the fetch path,
    the data side (when it is live and the pattern touches it) and the
    BTB, and a cache scope of the trace token, the config digest and
    the data-side mode.  A stream without a live data side has no data
    state to fingerprint and no stream-variance veto (its
    [stream_invariant] always holds); a live one keeps both.  [report]
    defaults to a fresh one. *)
