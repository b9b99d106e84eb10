let code_base = 0x0001_0000

(* Fast-forward is on by default: it is bit-identical to full replay
   (the differ and fuzz corpus enforce this), so there is no
   fidelity-vs-speed trade.  The CLI's [--no-fastforward] escape hatch
   and the differential tests flip this; an [Atomic.t] because prepared
   benchmarks run from many domains. *)
let fastforward_default = Atomic.make true
let set_fastforward_default b = Atomic.set fastforward_default b
let default_fastforward () = Atomic.get fastforward_default

(* The per-instruction reference loop: fetch, data access, retire — one
   instruction at a time through the core model.  This is the
   definition of the machine's behaviour; the fast path below must
   reproduce its Stats bit-for-bit. *)
let run_reference_loop ~probe ~resize_schedule ~(config : Config.t) ~compiled
    ~(trace : Wp_workloads.Tracer.trace) ~(stats : Stats.t) ~engine ~dmem ~data
    =
  let core =
    Wp_pipeline.Core_model.create ~btb_entries:config.btb_entries
      ~mispredict_penalty:config.mispredict_penalty ?probe ()
  in
  let starts = Compiled_trace.starts compiled in
  let bodies = Compiled_trace.bodies compiled in
  let taken_succs = Compiled_trace.taken_succs compiled in
  let blocks = trace.Wp_workloads.Tracer.blocks in
  let nblocks = Array.length blocks in
  let pending_resizes = ref resize_schedule in
  for k = 0 to nblocks - 1 do
    (match !pending_resizes with
    | (at, area_bytes) :: rest when at <= k ->
        Fetch_engine.resize_area engine ~area_bytes;
        pending_resizes := rest
    | (_, _) :: _ | [] -> ());
    let id = blocks.(k) in
    let start = starts.(id) in
    let body = bodies.(id) in
    let nb = Array.length body in
    for i = 0 to nb - 1 do
      let pc = start + (i * Wp_isa.Instr.size_bytes) in
      let fetch_stall = Fetch_engine.fetch engine stats pc in
      let instr = body.(i) in
      let opcode = instr.Wp_isa.Instr.opcode in
      let dmem_stall =
        match opcode with
        | Wp_isa.Opcode.Load ->
            Dmem.access dmem stats (Data_stream.next data instr.Wp_isa.Instr.locality)
              ~write:false
        | Wp_isa.Opcode.Store ->
            Dmem.access dmem stats (Data_stream.next data instr.Wp_isa.Instr.locality)
              ~write:true
        | Wp_isa.Opcode.Alu _ | Mac | Branch | Jump | Call | Return | Nop -> 0
      in
      let taken =
        match opcode with
        | Wp_isa.Opcode.Branch ->
            i = nb - 1 && k + 1 < nblocks && blocks.(k + 1) = taken_succs.(id)
        | Wp_isa.Opcode.Jump | Call | Return | Alu _ | Mac | Load | Store | Nop
          ->
            false
      in
      Wp_pipeline.Core_model.retire core ~pc ~opcode ~fetch_stall ~dmem_stall
        ~taken
    done
  done;
  stats.Stats.cycles <- Wp_pipeline.Core_model.cycles core;
  stats.Stats.retired_instrs <- Wp_pipeline.Core_model.instructions core

(* The block-batched fast path: same-line runs fetched in one
   [Fetch_engine.fetch_run] call each, memory ops replayed afterwards in
   program order, cycles accumulated from the plan's pre-summed execute
   latencies.  Safe reorderings only: the fetch and data engines share
   no state, and energy is priced from counts at the end, so moving a
   run's fetches ahead of its data accesses changes no counter.  Branches exist only as block terminators
   (Basic_block validates this), so the predictor runs once per block. *)
let run_fast ~(config : Config.t) ~compiled
    ~(trace : Wp_workloads.Tracer.trace) ~(stats : Stats.t) ~engine ~dmem ~data
    ~ff =
  let info = Compiled_trace.info compiled in
  let plan =
    Compiled_trace.plan compiled ~line_bytes:config.icache.Wp_cache.Geometry.line_bytes
  in
  let btb = Wp_pipeline.Btb.create ~entries:config.btb_entries in
  let mispredict_penalty = config.mispredict_penalty in
  let blocks = trace.Wp_workloads.Tracer.blocks in
  let nblocks = Array.length blocks in
  let cycles = ref 0 in
  let instrs = ref 0 in
  (* One trace position: the unit both the plain loop and the
     fast-forward driver execute. *)
  let exec_block k =
    let id = blocks.(k) in
    let b = info.(id) in
    let pb = plan.(id) in
    let runs = pb.Compiled_trace.runs in
    let run_cycles = pb.Compiled_trace.run_cycles in
    let mem = b.Compiled_trace.mem in
    let n_mem = Array.length mem in
    let pc = ref b.Compiled_trace.start in
    let off = ref 0 in
    let mi = ref 0 in
    for r = 0 to Array.length runs - 1 do
      let len = runs.(r) in
      let fetch_stall = Fetch_engine.fetch_run engine stats !pc ~n:len in
      cycles := !cycles + run_cycles.(r) + fetch_stall;
      let run_end = !off + len in
      while !mi < n_mem && mem.(!mi).Compiled_trace.pos < run_end do
        let m = mem.(!mi) in
        cycles :=
          !cycles
          + Dmem.access dmem stats
              (Data_stream.next data m.Compiled_trace.locality)
              ~write:m.Compiled_trace.write;
        incr mi
      done;
      off := run_end;
      pc := !pc + (len * Wp_isa.Instr.size_bytes)
    done;
    instrs := !instrs + b.Compiled_trace.n_instrs;
    if b.Compiled_trace.term_branch then begin
      let taken =
        k + 1 < nblocks && blocks.(k + 1) = b.Compiled_trace.taken_succ
      in
      let predicted =
        Wp_pipeline.Btb.predict_taken btb b.Compiled_trace.term_pc
      in
      Wp_pipeline.Btb.update btb b.Compiled_trace.term_pc ~taken;
      if predicted <> taken then cycles := !cycles + mispredict_penalty
    end
  in
  (match ff with
  | None ->
      for k = 0 to nblocks - 1 do
        exec_block k
      done
  | Some (policy, report, cache) ->
      (* The cache scope pins the world an entry was recorded in: the
         compiled trace's identity and the whole configuration (energy
         parameters and latencies are deliberately not fingerprinted —
         they are constants of a run, so they must be constants of the
         key).  Computed only when a cache is actually attached. *)
      let cache_scope =
        match cache with
        | None -> ""
        | Some _ ->
            Printf.sprintf "%d/%s" (Compiled_trace.token compiled)
              (Digest.string (Marshal.to_string config []))
      in
      let ctx =
        {
          Steady_state.policy;
          report;
          stats;
          blocks;
          n_ids = Array.length info;
          n_instrs_of = (fun id -> info.(id).Compiled_trace.n_instrs);
          stream_invariant =
            (fun ~start ~period ->
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
              Fetch_engine.fingerprint engine ~now:stats.Stats.fetches ~add;
              (* A pattern with no memory operations at all never calls
                 into the data side: its state is neither read nor
                 written across the region, so it cannot distinguish
                 boundaries — leave it out of the snapshot (the
                 dominant cost for pure-compute loops). *)
              let period_mem = ref 0 in
              for j = start to start + period - 1 do
                period_mem :=
                  !period_mem
                  + Array.length info.(blocks.(j)).Compiled_trace.mem
              done;
              if !period_mem > 0 then begin
                Dmem.fingerprint dmem ~add;
                Data_stream.fingerprint data ~add
              end;
              Wp_pipeline.Btb.fingerprint btb ~add);
          exec = exec_block;
          set_awake_recorder = Fetch_engine.set_drowsy_recorder engine;
          drowsy_advance =
            (fun ~since ~delta ->
              Fetch_engine.drowsy_advance_touched engine ~since ~delta);
          drowsy_replay =
            (fun a ~len ~iters ->
              Fetch_engine.drowsy_replay_awake engine a ~len ~iters);
          cycles;
          instrs;
          cache;
          cache_scope;
          cycle_headroom = None;
        }
      in
      (* The pre-scan decides engagement up front: a patternless trace
         replays through the same bare loop as the no-FF path, so
         fast-forward costs it nothing. *)
      let drv = Steady_state.make ctx in
      if Steady_state.engaged drv then Steady_state.drive drv
      else
        for k = 0 to nblocks - 1 do
          exec_block k
        done);
  stats.Stats.cycles <- !cycles;
  stats.Stats.retired_instrs <- !instrs

let run_compiled ?probe ?(schedule = []) ?(reference_only = false)
    ?fastforward ?(ff_policy = Steady_state.default_policy) ?ff_report
    ?snapshot_cache ~(config : Config.t) ~(trace : Wp_workloads.Tracer.trace)
    compiled =
  let resize_schedule = schedule in
  (let rec ascending = function
     | (a, _) :: ((b, _) :: _ as rest) ->
         if b <= a then
           invalid_arg "Simulator.run: resize schedule must be ascending"
         else ascending rest
     | [ _ ] | [] -> ()
   in
   ascending resize_schedule);
  let program = Compiled_trace.program compiled in
  let stats = Stats.create () in
  let engine = Fetch_engine.create ?probe config ~code_base in
  let dmem = Dmem.create ?probe config in
  let data =
    Data_stream.create ~seed:(program.Wp_workloads.Codegen.spec.Wp_workloads.Spec.seed lxor 0xDA7A)
  in
  (match (probe, resize_schedule, reference_only) with
  | None, [], false ->
      (* Fast-forward only ever engages here: probes, resize schedules
         and reference runs all take the per-instruction loop below, so
         those bail-out conditions are structural. *)
      let ff_enabled =
        match fastforward with
        | Some b -> b
        | None -> Atomic.get fastforward_default
      in
      let ff =
        if not ff_enabled then None
        else
          Some
            ( ff_policy,
              (match ff_report with
              | Some r -> r
              | None -> Steady_state.create_report ()),
              snapshot_cache )
      in
      run_fast ~config ~compiled ~trace ~stats ~engine ~dmem ~data ~ff
  | _ ->
      run_reference_loop ~probe ~resize_schedule ~config ~compiled ~trace
        ~stats ~engine ~dmem ~data);
  Stats.price stats (Config.prices config)
    ~leakage_pj:(Fetch_engine.leakage_pj engine stats ~cycles:stats.Stats.cycles);
  stats

let run_probed ~probe ~schedule ~config ~program ~layout ~trace =
  run_compiled ~probe ~schedule ~config ~trace
    (Compiled_trace.make ~program ~layout)

let run_with_resizes ~schedule ~config ~program ~layout ~trace =
  run_compiled ~schedule ~config ~trace (Compiled_trace.make ~program ~layout)

let run_reference ~config ~program ~layout ~trace =
  run_compiled ~reference_only:true ~config ~trace
    (Compiled_trace.make ~program ~layout)

let run ~config ~program ~layout ~trace =
  run_compiled ~config ~trace (Compiled_trace.make ~program ~layout)
