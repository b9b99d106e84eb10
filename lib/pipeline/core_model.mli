(** XTREM-lite: the cycle model of the in-order XScale-like core
    (paper Table 1: single issue, in-order, 1 ALU + 1 MAC + 1
    load/store, 7-stage pipeline).

    The simulator is trace-driven, so the model charges cycles per
    retired instruction: one base cycle, plus fetch stalls (I-cache
    misses, way-hint re-accesses), plus data-memory stalls, plus MAC
    execute occupancy, plus the branch mispredict penalty when the
    internal predictor was wrong.  This reproduces the paper's
    performance behaviour: way-placement perturbs cycles only through
    rare way-hint mispredicts and layout-induced I-cache miss
    changes. *)

type t

val create :
  ?btb:Btb.t -> ?mispredict_penalty:int -> ?probe:Wp_obs.Probe.t ->
  unit -> t
(** Defaults: a fresh 128-entry BTB, 4-cycle mispredict penalty.  [btb]
    is used in place — the simulator passes its machine's shared
    predictor.  [probe] observes one cumulative [Retire] event per
    retired instruction — the sampler's clock; pure observation. *)

val retire :
  t ->
  pc:Wp_isa.Addr.t ->
  opcode:Wp_isa.Opcode.t ->
  fetch_stall:int ->
  dmem_stall:int ->
  taken:bool ->
  unit
(** Account one instruction.  [taken] matters only for conditional
    branches ([Jump]/[Call]/[Return] are unconditional and predicted
    by the BTB's target logic, modelled as always-correct). *)

val cycles : t -> int
val instructions : t -> int
val mispredicts : t -> int
val ipc : t -> float
val reset : t -> unit
