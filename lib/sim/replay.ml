module Btb = Wp_pipeline.Btb
module Core_model = Wp_pipeline.Core_model

type machine = {
  engine : Fetch_engine.t;
  dmem : Dmem.t;
  btb : Btb.t;
  mispredict_penalty : int;
}

let machine ?probe (config : Config.t) ~code_base =
  {
    engine = Fetch_engine.create ?probe config ~code_base;
    dmem = Dmem.create ?probe config;
    btb = Btb.create ~entries:config.btb_entries;
    mispredict_penalty = config.mispredict_penalty;
  }

let core ?probe m =
  Core_model.create ~btb:m.btb ~mispredict_penalty:m.mispredict_penalty ?probe
    ()

type stream = {
  compiled : Compiled_trace.t;
  blocks : int array;
  info : Compiled_trace.block_info array;
  plan : Compiled_trace.plan;
  data : Data_stream.t option;
  stats : Stats.t;
  cycles : int ref;
  instrs : int ref;
}

let stream ?(live_data = true) (config : Config.t)
    ~(trace : Wp_workloads.Tracer.trace) ~stats compiled =
  {
    compiled;
    blocks = trace.Wp_workloads.Tracer.blocks;
    info = Compiled_trace.info compiled;
    plan =
      Compiled_trace.plan compiled
        ~line_bytes:config.icache.Wp_cache.Geometry.line_bytes;
    data = (if live_data then Some (Dside.data_stream compiled) else None);
    stats;
    cycles = ref 0;
    instrs = ref 0;
  }

let finish s =
  s.stats.Stats.cycles <- !(s.cycles);
  s.stats.Stats.retired_instrs <- !(s.instrs)

(* The block-batched fast step: same-line runs fetched in one
   [Fetch_engine.fetch_run] call each, cycles accumulated from the
   plan's pre-summed execute latencies, then the block's memory ops in
   program order through the one data-side hook — live, or nothing when
   the driver adds the trace's {!Dside} totals instead.  Safe
   reorderings only: the fetch and data engines share no state, and
   energy is priced from counts at the end, so running a block's
   fetches ahead of its data accesses changes no counter.  Branches
   exist only as block terminators (Basic_block validates this), so the
   predictor runs once per block.  The stream's tables are bound once,
   outside the per-block closure. *)
let fast_step m s =
  let blocks = s.blocks and info = s.info and plan = s.plan in
  let nblocks = Array.length blocks in
  let engine = m.engine and btb = m.btb in
  let mispredict_penalty = m.mispredict_penalty in
  let stats = s.stats in
  let cycles = s.cycles and instrs = s.instrs in
  let data_block =
    match s.data with
    | None -> fun _ -> 0
    | Some data ->
        let dmem = m.dmem in
        fun b -> Dside.replay_block dmem data stats b
  in
  fun k ->
    let id = blocks.(k) in
    let b = info.(id) in
    let pb = plan.(id) in
    let runs = pb.Compiled_trace.runs in
    let run_cycles = pb.Compiled_trace.run_cycles in
    let pc = ref b.Compiled_trace.start in
    let delta = ref 0 in
    for r = 0 to Array.length runs - 1 do
      let len = runs.(r) in
      let fetch_stall = Fetch_engine.fetch_run engine stats !pc ~n:len in
      delta := !delta + run_cycles.(r) + fetch_stall;
      pc := !pc + (len * Wp_isa.Instr.size_bytes)
    done;
    delta := !delta + data_block b;
    if b.Compiled_trace.term_branch then begin
      let taken =
        k + 1 < nblocks && blocks.(k + 1) = b.Compiled_trace.taken_succ
      in
      let predicted = Btb.predict_taken btb b.Compiled_trace.term_pc in
      Btb.update btb b.Compiled_trace.term_pc ~taken;
      if predicted <> taken then delta := !delta + mispredict_penalty
    end;
    cycles := !cycles + !delta;
    instrs := !instrs + b.Compiled_trace.n_instrs

(* The per-instruction reference step: fetch, data access, retire — one
   instruction at a time through the core model.  This is the
   definition of the machine's behaviour; the fast step must reproduce
   its Stats bit for bit. *)
let reference_step core m s =
  let blocks = s.blocks in
  let nblocks = Array.length blocks in
  let bodies = Compiled_trace.bodies s.compiled in
  let data =
    match s.data with
    | Some data -> data
    | None -> invalid_arg "Replay.reference_step: the data side is not live"
  in
  fun k ->
    let id = blocks.(k) in
    let { Compiled_trace.start; taken_succ; _ } = s.info.(id) in
    let body = bodies.(id) in
    let nb = Array.length body in
    let before = Core_model.cycles core in
    for i = 0 to nb - 1 do
      let pc = start + (i * Wp_isa.Instr.size_bytes) in
      let fetch_stall = Fetch_engine.fetch m.engine s.stats pc in
      let instr = body.(i) in
      let opcode = instr.Wp_isa.Instr.opcode in
      let dmem_stall =
        match opcode with
        | Wp_isa.Opcode.Load ->
            Dmem.access m.dmem s.stats
              (Data_stream.next data instr.Wp_isa.Instr.locality)
              ~write:false
        | Wp_isa.Opcode.Store ->
            Dmem.access m.dmem s.stats
              (Data_stream.next data instr.Wp_isa.Instr.locality)
              ~write:true
        | Wp_isa.Opcode.Alu _ | Mac | Branch | Jump | Call | Return | Nop -> 0
      in
      (* [taken] matters only to a conditional branch, which only ever
         terminates a block. *)
      let taken =
        i = nb - 1 && k + 1 < nblocks && blocks.(k + 1) = taken_succ
      in
      Core_model.retire core ~pc ~opcode ~fetch_stall ~dmem_stall ~taken
    done;
    s.cycles := !(s.cycles) + Core_model.cycles core - before;
    s.instrs := !(s.instrs) + nb

let ff_ctx ?cycle_headroom ?(report = Steady_state.create_report ()) ~policy
    ~cache (config : Config.t) m s =
  let info = s.info and blocks = s.blocks in
  {
    Steady_state.policy;
    report;
    stats = s.stats;
    blocks;
    n_ids = Array.length info;
    n_instrs_of = (fun id -> info.(id).Compiled_trace.n_instrs);
    stream_invariant =
      (match s.data with
      | None -> fun ~start:_ ~period:_ -> true
      | Some _ ->
          fun ~start ~period ->
            let seq = ref 0 and stride = ref 0 and rand = ref 0 in
            for j = start to start + period - 1 do
              let b = info.(blocks.(j)) in
              seq := !seq + b.Compiled_trace.seq_bytes;
              stride := !stride + b.Compiled_trace.stride_bytes;
              rand := !rand + b.Compiled_trace.n_random
            done;
            Data_stream.advance_invariant ~seq_bytes:!seq
              ~stride_bytes:!stride ~n_random:!rand);
    fingerprint =
      (fun ~start ~period ~add ->
        (* The drowsy clock is the stream's own fetch counter. *)
        Fetch_engine.fingerprint m.engine ~now:s.stats.Stats.fetches ~add;
        (* The data side is fingerprinted only when it is live and the
           pattern calls into it: a pattern with no memory operations
           neither reads nor writes it across the region, so it cannot
           distinguish boundaries (and it is the dominant cost for
           pure-compute loops). *)
        (match s.data with
        | None -> ()
        | Some data ->
            let period_mem = ref 0 in
            for j = start to start + period - 1 do
              period_mem :=
                !period_mem
                + Array.length info.(blocks.(j)).Compiled_trace.mem
            done;
            if !period_mem > 0 then begin
              Dmem.fingerprint m.dmem ~add;
              Data_stream.fingerprint data ~add
            end);
        Btb.fingerprint m.btb ~add);
    exec = fast_step m s;
    set_awake_recorder = Fetch_engine.set_drowsy_recorder m.engine;
    drowsy_advance =
      (fun ~since ~delta ->
        Fetch_engine.drowsy_advance_touched m.engine ~since ~delta);
    drowsy_replay =
      (fun a ~len ~iters ->
        Fetch_engine.drowsy_replay_awake m.engine a ~len ~iters);
    cycles = s.cycles;
    instrs = s.instrs;
    cache;
    (* The scope pins the world an entry was recorded in: the compiled
       trace's identity, the whole configuration (energy parameters
       and latencies are deliberately not fingerprinted — they are
       constants of a run, so they must be constants of the key) and
       the data-side mode, since an entry recorded with a live data
       side holds its D counters and stalls and one recorded without
       it holds none. *)
    cache_scope =
      (match cache with
      | None -> ""
      | Some _ ->
          Printf.sprintf "%d/%s/%s"
            (Compiled_trace.token s.compiled)
            (Digest.string (Marshal.to_string config []))
            (match s.data with None -> "d-totals" | Some _ -> "d-live"));
    cycle_headroom;
  }
