module Config = Wp_sim.Config
module Stats = Wp_sim.Stats
module Simulator = Wp_sim.Simulator
module Steady_state = Wp_sim.Steady_state
module Snapshot_cache = Wp_sim.Snapshot_cache
module Compiled_trace = Wp_sim.Compiled_trace
module Fetch_engine = Wp_sim.Fetch_engine
module Dmem = Wp_sim.Dmem
module Data_stream = Wp_sim.Data_stream
module Btb = Wp_pipeline.Btb
module Tracer = Wp_workloads.Tracer
module Codegen = Wp_workloads.Codegen
module Probe = Wp_obs.Probe

type btb_policy = Btb_shared | Btb_flush
type drowsy_policy = Drowsy_shared | Drowsy_flush
type sched_policy = Round_robin | Priority

type options = {
  quantum_cycles : int;
  kernel : bool;
  btb_policy : btb_policy;
  drowsy_policy : drowsy_policy;
  sched : sched_policy;
}

let default_options =
  {
    quantum_cycles = 50_000;
    kernel = true;
    btb_policy = Btb_shared;
    drowsy_policy = Drowsy_shared;
    sched = Round_robin;
  }

let oracle_options =
  {
    quantum_cycles = 0;
    kernel = false;
    btb_policy = Btb_shared;
    drowsy_policy = Drowsy_shared;
    sched = Round_robin;
  }

type process_result = {
  pr_name : string;
  pr_placed : bool;
  pr_base : Wp_isa.Addr.t;
  pr_stats : Stats.t;
  pr_dispatches : int;
}

type result = {
  aggregate : Stats.t;
  processes : process_result list;
  system : Stats.t;
  switches : int;
  kernel_runs : int;
  timer_fires : int;
}

let switches_per_million r =
  if r.aggregate.Stats.retired_instrs = 0 then 0.0
  else
    float_of_int r.switches *. 1_000_000.0
    /. float_of_int r.aggregate.Stats.retired_instrs

(* One process's share of the machine: its compiled image at a private
   base address, its own data stream and [Stats.t], and its scheduling
   state.  The interrupt kernel reuses the same record (charging into
   the system stats) so both run through the same execution paths. *)
type proc_state = {
  pname : string;
  placed : bool;  (** effective: mix flag && way-placement scheme *)
  priority : int;
  base : Wp_isa.Addr.t;
  warea : int;  (** way-placed window bytes at [base]; 0 if unplaced *)
  token : int;  (** this process's {!Compiled_trace.token} *)
  trace_blocks : int array;
  info : Compiled_trace.block_info array;
  plan : Compiled_trace.plan;
  starts : int array;
  bodies : Wp_isa.Instr.t array array;
  taken_succs : int array;
  data : Data_stream.t;
  stats : Stats.t;
  mutable k : int;  (** next trace position *)
  mutable cycles : int;
  mutable instrs : int;
  mutable dispatches : int;
}

let align_up n ~quantum = (n + quantum - 1) / quantum * quantum

let proc_state_of_compiled (config : Config.t) ~pname ~placed ~priority ~base
    ~warea ~(trace : Tracer.trace) ~seed ~stats compiled =
  {
    pname;
    placed;
    priority;
    base;
    warea;
    token = Compiled_trace.token compiled;
    trace_blocks = trace.Tracer.blocks;
    info = Compiled_trace.info compiled;
    plan =
      Compiled_trace.plan compiled
        ~line_bytes:config.icache.Wp_cache.Geometry.line_bytes;
    starts = Compiled_trace.starts compiled;
    bodies = Compiled_trace.bodies compiled;
    taken_succs = Compiled_trace.taken_succs compiled;
    data = Data_stream.create ~seed:(seed lxor 0xDA7A);
    stats;
    k = 0;
    cycles = 0;
    instrs = 0;
    dispatches = 0;
  }

(* Lay one process out at [base]: placed processes get the placement
   pass's order and a live way-placement window of the machine's
   configured area; the rest keep the original order and no window.
   Returns the state plus the next free page-aligned base, reserving
   the larger of the code image and the placement window so process
   address windows never overlap. *)
let prepare_proc (config : Config.t) ~base (p : Mix.proc) =
  let spec = p.Mix.spec in
  let program = Codegen.generate spec in
  let graph = program.Codegen.graph in
  let placed, warea =
    match config.scheme with
    | Config.Way_placement { area_bytes } when p.Mix.placed ->
        (true, area_bytes)
    | Config.Way_placement _ | Config.Baseline | Config.Way_memoization
    | Config.Way_prediction | Config.Filter_cache _ ->
        (false, 0)
  in
  let order =
    if placed then
      Wp_layout.Placer.place graph (Tracer.profile program Tracer.Small)
    else Wp_layout.Placer.original graph
  in
  let layout = Wp_layout.Binary_layout.of_order graph ~base order in
  let compiled = Compiled_trace.make ~program ~layout in
  let trace = Tracer.trace program Tracer.Large in
  let footprint =
    let code = Wp_layout.Binary_layout.code_size_bytes layout in
    if code > warea then code else warea
  in
  let next_base = align_up (base + footprint) ~quantum:config.page_bytes in
  ( proc_state_of_compiled config ~pname:p.Mix.pname ~placed
      ~priority:p.Mix.priority ~base ~warea ~trace
      ~seed:spec.Wp_workloads.Spec.seed ~stats:(Stats.create ()) compiled,
    next_base )

(* One process's fast-forward state: the resumable detector plus the
   process-lifetime cycle/instruction accumulators its skips land in
   (reconciled into the machine counters after every quantum). *)
type ff_state = {
  drv : Steady_state.driver;
  c : int ref;  (** = [p.cycles] between quanta; runs ahead inside one *)
  ins : int ref;  (** likewise for [p.instrs] *)
  q_base : int ref;  (** [!c] at the current quantum's dispatch *)
}

let run ?probe ?(reference_only = false) ?fastforward
    ?(ff_policy = Steady_state.default_policy) ?ff_report ?snapshot_cache
    ~(config : Config.t) ~options mix =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.run: " ^ msg));
  (match Mix.validate mix with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.run: " ^ msg));
  let reference = reference_only || Option.is_some probe in
  let quantum =
    if options.quantum_cycles <= 0 then max_int else options.quantum_cycles
  in
  let system = Stats.create () in
  (* Process 0 sits exactly at [Simulator.code_base] — the identity
     oracle relies on a single-process mix seeing the very addresses
     [Simulator.run] uses. *)
  let procs =
    let next = ref Simulator.code_base in
    Array.of_list
      (List.map
         (fun p ->
           let st, next' = prepare_proc config ~base:!next p in
           next := next';
           st)
         mix)
  in
  let n = Array.length procs in
  let kernel =
    if not options.kernel then None
    else begin
      let k = Kernel.prepare ~page_bytes:config.page_bytes in
      let warea =
        match config.scheme with
        | Config.Way_placement _ -> k.Kernel.area_bytes
        | Config.Baseline | Config.Way_memoization | Config.Way_prediction
        | Config.Filter_cache _ ->
            0
      in
      Some
        (proc_state_of_compiled config ~pname:"kernel" ~placed:(warea > 0)
           ~priority:0 ~base:Kernel.base ~warea ~trace:k.Kernel.trace
           ~seed:Kernel.spec.Wp_workloads.Spec.seed ~stats:system k.Kernel.compiled)
    end
  in
  let engine = Fetch_engine.create ?probe config ~code_base:Simulator.code_base in
  let dmem = Dmem.create ?probe config in
  let btb = Btb.create ~entries:config.btb_entries in
  let mispredict_penalty = config.mispredict_penalty in
  let m_cycles = ref 0 in
  let m_instrs = ref 0 in
  let switches = ref 0 in
  let kernel_runs = ref 0 in
  let timer_fires = ref 0 in
  (* The drowsy clock is the charging process's fetch counter; track
     whose [Stats.t] currently holds it and hand the clock over
     (gap-preserving rebase, or a full sleep under the flush policy)
     whenever the charging stats change. *)
  let clock = ref system in
  let drowsy_switch_to (st : Stats.t) =
    let from = !clock in
    if from != st then begin
      (match options.drowsy_policy with
      | Drowsy_shared ->
          Fetch_engine.drowsy_rebase engine ~old_now:from.Stats.fetches
            ~new_now:st.Stats.fetches
      | Drowsy_flush ->
          Fetch_engine.drowsy_sleep_all engine ~now:from.Stats.fetches);
      clock := st
    end
  in
  (* One trace position on the block-batched fast path — the exact
     per-block effect sequence of [Simulator]'s [run_fast], with the
     cycle delta returned so the scheduler can charge the quantum. *)
  let exec_block_fast (p : proc_state) k =
    let id = p.trace_blocks.(k) in
    let b = p.info.(id) in
    let pb = p.plan.(id) in
    let runs = pb.Compiled_trace.runs in
    let run_cycles = pb.Compiled_trace.run_cycles in
    let mem = b.Compiled_trace.mem in
    let n_mem = Array.length mem in
    let pc = ref b.Compiled_trace.start in
    let off = ref 0 in
    let mi = ref 0 in
    let delta = ref 0 in
    for r = 0 to Array.length runs - 1 do
      let len = runs.(r) in
      let fetch_stall = Fetch_engine.fetch_run engine p.stats !pc ~n:len in
      delta := !delta + run_cycles.(r) + fetch_stall;
      let run_end = !off + len in
      while !mi < n_mem && mem.(!mi).Compiled_trace.pos < run_end do
        let m = mem.(!mi) in
        delta :=
          !delta
          + Dmem.access dmem p.stats
              (Data_stream.next p.data m.Compiled_trace.locality)
              ~write:m.Compiled_trace.write;
        incr mi
      done;
      off := run_end;
      pc := !pc + (len * Wp_isa.Instr.size_bytes)
    done;
    if b.Compiled_trace.term_branch then begin
      let taken =
        k + 1 < Array.length p.trace_blocks
        && p.trace_blocks.(k + 1) = b.Compiled_trace.taken_succ
      in
      let predicted = Btb.predict_taken btb b.Compiled_trace.term_pc in
      Btb.update btb b.Compiled_trace.term_pc ~taken;
      if predicted <> taken then delta := !delta + mispredict_penalty
    end;
    m_cycles := !m_cycles + !delta;
    m_instrs := !m_instrs + b.Compiled_trace.n_instrs;
    p.instrs <- p.instrs + b.Compiled_trace.n_instrs;
    !delta
  in
  (* The per-instruction reference twin (probed runs always take it):
     the same retire-cycle formula as [Core_model.retire], against the
     machine-shared BTB, with cumulative machine-wide [Retire] events
     driving the sampler clock. *)
  let exec_block_ref (p : proc_state) k =
    let id = p.trace_blocks.(k) in
    let start = p.starts.(id) in
    let body = p.bodies.(id) in
    let nb = Array.length body in
    let nblocks = Array.length p.trace_blocks in
    let delta = ref 0 in
    for i = 0 to nb - 1 do
      let pc = start + (i * Wp_isa.Instr.size_bytes) in
      let fetch_stall = Fetch_engine.fetch engine p.stats pc in
      let instr = body.(i) in
      let opcode = instr.Wp_isa.Instr.opcode in
      let dmem_stall =
        match opcode with
        | Wp_isa.Opcode.Load ->
            Dmem.access dmem p.stats
              (Data_stream.next p.data instr.Wp_isa.Instr.locality)
              ~write:false
        | Wp_isa.Opcode.Store ->
            Dmem.access dmem p.stats
              (Data_stream.next p.data instr.Wp_isa.Instr.locality)
              ~write:true
        | Wp_isa.Opcode.Alu _ | Mac | Branch | Jump | Call | Return | Nop -> 0
      in
      let branch_penalty =
        match opcode with
        | Wp_isa.Opcode.Branch ->
            let taken =
              i = nb - 1
              && k + 1 < nblocks
              && p.trace_blocks.(k + 1) = p.taken_succs.(id)
            in
            let predicted = Btb.predict_taken btb pc in
            Btb.update btb pc ~taken;
            if predicted <> taken then mispredict_penalty else 0
        | Jump | Call | Return | Alu _ | Mac | Load | Store | Nop -> 0
      in
      let instr_cycles =
        1 + fetch_stall + dmem_stall
        + (Wp_isa.Opcode.execute_latency opcode - 1)
        + branch_penalty
      in
      delta := !delta + instr_cycles;
      m_cycles := !m_cycles + instr_cycles;
      m_instrs := !m_instrs + 1;
      (match probe with
      | None -> ()
      | Some pr ->
          pr (Probe.Retire { cycles = !m_cycles; instrs = !m_instrs }))
    done;
    p.instrs <- p.instrs + nb;
    !delta
  in
  let exec_block p k =
    let delta = if reference then exec_block_ref p k else exec_block_fast p k in
    p.cycles <- p.cycles + delta;
    delta
  in
  let finished p = p.k >= Array.length p.trace_blocks in
  (* Run [p] until its trace ends or the quantum expires (checked at
     block boundaries — the block cycle deltas are identical on both
     execution paths, so scheduling decisions are too). *)
  let run_quantum (p : proc_state) =
    p.dispatches <- p.dispatches + 1;
    let used = ref 0 in
    let continue = ref true in
    while !continue do
      used := !used + exec_block p p.k;
      p.k <- p.k + 1;
      if finished p then continue := false
      else if !used >= quantum then begin
        incr timer_fires;
        continue := false
      end
    done
  in
  (* Steady-state fast-forward on the fast path, one resumable driver
     per user process (the kernel trace is short and replays whole —
     not worth detecting).  Same bail-out structure as [Simulator]:
     probes and reference runs never engage it. *)
  let ff_enabled =
    (not reference)
    &&
    match fastforward with
    | Some b -> b
    | None -> Simulator.default_fastforward ()
  in
  let ff_report_v =
    match ff_report with Some r -> r | None -> Steady_state.create_report ()
  in
  let config_digest =
    lazy (Digest.string (Marshal.to_string config []))
  in
  let make_ff (p : proc_state) =
    let c = ref 0 and ins = ref 0 in
    let q_base = ref 0 in
    let info = p.info in
    let blocks = p.trace_blocks in
    let ctx =
      {
        Steady_state.policy = ff_policy;
        report = ff_report_v;
        stats = p.stats;
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
            Data_stream.advance_invariant ~seq_bytes:!seq ~stride_bytes:!stride
              ~n_random:!rand);
        fingerprint =
          (fun ~start ~period ~add ->
            (* The drowsy clock is the charging process's fetch counter
               — exactly [p.stats] for the whole quantum. *)
            Fetch_engine.fingerprint engine ~now:p.stats.Stats.fetches ~add;
            let period_mem = ref 0 in
            for j = start to start + period - 1 do
              period_mem :=
                !period_mem + Array.length info.(blocks.(j)).Compiled_trace.mem
            done;
            if !period_mem > 0 then begin
              Dmem.fingerprint dmem ~add;
              Data_stream.fingerprint p.data ~add
            end;
            Btb.fingerprint btb ~add);
        exec =
          (fun k ->
            c := !c + exec_block p k;
            ins := !ins + info.(blocks.(k)).Compiled_trace.n_instrs);
        set_awake_recorder = Fetch_engine.set_drowsy_recorder engine;
        drowsy_advance =
          (fun ~since ~delta ->
            Fetch_engine.drowsy_advance_touched engine ~since ~delta);
        drowsy_replay =
          (fun a ~len ~iters ->
            Fetch_engine.drowsy_replay_awake engine a ~len ~iters);
        cycles = c;
        instrs = ins;
        cache = snapshot_cache;
        cache_scope =
          (match snapshot_cache with
          | None -> ""
          | Some _ ->
              Printf.sprintf "%d/%s" p.token (Lazy.force config_digest));
        (* A skip may never cross the quantum boundary: the reference
           loop would have taken the timer interrupt mid-iteration, so
           cap skips at [quantum - 1 - used] cycles and let the blocks
           around the expiry execute one by one — switch points land on
           exactly the reference loop's block boundaries. *)
        cycle_headroom = Some (fun () -> quantum - 1 - (!c - !q_base));
      }
    in
    { drv = Steady_state.make ctx; c; ins; q_base }
  in
  let ff = if ff_enabled then Array.map make_ff procs else [||] in
  (* The fast-forward twin of [run_quantum]: the driver executes blocks
     through [exec_block] (so the machine counters see them normally)
     and lands skipped iterations in [c]/[ins] only — the difference
     against [p.cycles]/[p.instrs] after the slice is exactly what the
     skips added, reconciled here into the machine totals. *)
  let run_quantum_ff (p : proc_state) (f : ff_state) =
    p.dispatches <- p.dispatches + 1;
    Steady_state.reawaken f.drv;
    f.q_base := !(f.c);
    let until () = !(f.c) - !(f.q_base) >= quantum in
    Steady_state.advance f.drv ~until;
    p.k <- Steady_state.pos f.drv;
    let skipped_cycles = !(f.c) - p.cycles in
    let skipped_instrs = !(f.ins) - p.instrs in
    m_cycles := !m_cycles + skipped_cycles;
    m_instrs := !m_instrs + skipped_instrs;
    p.cycles <- !(f.c);
    p.instrs <- !(f.ins);
    if not (finished p) then incr timer_fires
  in
  let run_slice i =
    if Array.length ff = 0 then run_quantum procs.(i)
    else run_quantum_ff procs.(i) ff.(i)
  in
  (* The interrupt handler: replay the whole kernel trace into the
     system stats.  The kernel is mapped in every address space, so no
     TLB flush surrounds it — its pages evict user entries naturally
     (the I-TLB churn under measurement). *)
  let run_kernel (ks : proc_state) =
    incr kernel_runs;
    drowsy_switch_to system;
    Fetch_engine.set_window engine ~base:ks.base ~area_bytes:ks.warea;
    ks.k <- 0;
    while not (finished ks) do
      ignore (exec_block ks ks.k);
      ks.k <- ks.k + 1
    done;
    ks.dispatches <- ks.dispatches + 1;
    Fetch_engine.reset_stream engine
  in
  (* Next process to dispatch, scanning round-robin from [cur + 1] so
     the current process is preferred last among equals; [-1] when
     every trace is drained. *)
  let pick ~cur =
    match options.sched with
    | Round_robin ->
        let found = ref (-1) in
        let j = ref 1 in
        while !found < 0 && !j <= n do
          let i = (cur + !j) mod n in
          if not (finished procs.(i)) then found := i;
          incr j
        done;
        !found
    | Priority ->
        let best = ref (-1) in
        for j = 1 to n do
          let i = (cur + j) mod n in
          if
            (not (finished procs.(i)))
            && (!best < 0 || procs.(i).priority > procs.(!best).priority)
          then best := i
        done;
        !best
  in
  let dispatch i ~switched =
    if switched then begin
      incr switches;
      (* Address-space change: shoot down both TLBs (no ASIDs); caches
         are physical and deliberately survive so processes pollute
         each other's ways. *)
      Fetch_engine.flush_tlb engine;
      Dmem.flush_tlb dmem;
      (match options.btb_policy with
      | Btb_flush -> Btb.reset btb
      | Btb_shared -> ());
      match probe with
      | None -> ()
      | Some p -> p (Probe.Context_switch { next = i })
    end;
    drowsy_switch_to procs.(i).stats;
    Fetch_engine.set_window engine ~base:procs.(i).base
      ~area_bytes:procs.(i).warea
  in
  let cur = ref (pick ~cur:(n - 1)) in
  clock := procs.(!cur).stats;
  dispatch !cur ~switched:false;
  let running = ref true in
  while !running do
    run_slice !cur;
    match pick ~cur:!cur with
    | -1 -> running := false
    | next ->
        (* The switch boundary: drop the fetch-stream context, take the
           timer interrupt through the kernel, then either change
           address space or resume the same process. *)
        Fetch_engine.reset_stream engine;
        Option.iter run_kernel kernel;
        if next <> !cur then dispatch next ~switched:true
        else begin
          drowsy_switch_to procs.(next).stats;
          Fetch_engine.set_window engine ~base:procs.(next).base
            ~area_bytes:procs.(next).warea
        end;
        cur := next
  done;
  Array.iter
    (fun p ->
      p.stats.Stats.cycles <- p.cycles;
      p.stats.Stats.retired_instrs <- p.instrs)
    procs;
  (match kernel with
  | Some ks ->
      system.Stats.cycles <- ks.cycles;
      system.Stats.retired_instrs <- ks.instrs
  | None -> ());
  (* Leakage runs on the aggregate fetch clock (every fetch kept lines
     awake, whichever process issued it); align the drowsy state to it
     before finalising into the system account.  With a single process
     and no kernel the clock is already there — no rebase, and the
     leakage is bit-identical to [Simulator.run]'s. *)
  let agg_fetches =
    Array.fold_left
      (fun acc p -> acc + p.stats.Stats.fetches)
      system.Stats.fetches procs
  in
  if !clock.Stats.fetches <> agg_fetches then
    Fetch_engine.drowsy_rebase engine ~old_now:!clock.Stats.fetches
      ~new_now:agg_fetches;
  let leakage_pj =
    Fetch_engine.leakage_pj engine system ~cycles:!m_cycles
      ~now_fetches:agg_fetches
  in
  (* Aggregate = per-process totals + system, counter by counter —
     attribution sums to the aggregate exactly (a conservation law the
     differ asserts).  Each account is priced from its own counts, the
     leakage landing in the system's and the aggregate's; for a single
     process with no kernel the aggregate's counts are the process's
     own, so its energy is bit-identical to [Simulator.run]'s. *)
  let aggregate = Stats.create () in
  let zero = Stats.snapshot_ints (Stats.create ()) in
  let add_into st =
    Stats.add_scaled_delta aggregate ~before:zero
      ~after:(Stats.snapshot_ints st) ~times:1
  in
  Array.iter (fun p -> add_into p.stats) procs;
  add_into system;
  let prices = Config.prices config in
  Array.iter (fun p -> Stats.price p.stats prices ~leakage_pj:0.0) procs;
  Stats.price system prices ~leakage_pj;
  Stats.price aggregate prices ~leakage_pj;
  {
    aggregate;
    processes =
      Array.to_list
        (Array.map
           (fun p ->
             {
               pr_name = p.pname;
               pr_placed = p.placed;
               pr_base = p.base;
               pr_stats = p.stats;
               pr_dispatches = p.dispatches;
             })
           procs);
    system;
    switches = !switches;
    kernel_runs = !kernel_runs;
    timer_fires = !timer_fires;
  }
