module Config = Wp_sim.Config
module Stats = Wp_sim.Stats
module Simulator = Wp_sim.Simulator
module Steady_state = Wp_sim.Steady_state
module Compiled_trace = Wp_sim.Compiled_trace
module Fetch_engine = Wp_sim.Fetch_engine
module Dmem = Wp_sim.Dmem
module Replay = Wp_sim.Replay
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

(* One process's share of the machine: its replay stream (compiled
   image at a private base address, data stream, [Stats.t], cycle and
   instruction totals) and its scheduling state.  The interrupt kernel
   reuses the same record (charging into the system stats) so both run
   through the same block steps. *)
type proc_state = {
  pname : string;
  placed : bool;  (** effective: mix flag && way-placement scheme *)
  priority : int;
  base : Wp_isa.Addr.t;
  warea : int;  (** way-placed window bytes at [base]; 0 if unplaced *)
  s : Replay.stream;
  step : int -> unit;  (** the stream's block step *)
  mutable k : int;  (** next trace position *)
  mutable since : int;  (** the stream's cycles at the current dispatch *)
  mutable dispatches : int;
}

let align_up n ~quantum = (n + quantum - 1) / quantum * quantum

let proc_state_of_compiled config ~step ~pname ~placed ~priority ~base
    ~warea ~trace ~stats compiled =
  let s = Replay.stream config ~trace ~stats compiled in
  {
    pname;
    placed;
    priority;
    base;
    warea;
    s;
    step = step s;
    k = 0;
    since = 0;
    dispatches = 0;
  }

(* Lay one process out at [base]: placed processes get the placement
   pass's order and a live way-placement window of the machine's
   configured area; the rest keep the original order and no window.
   Returns the state plus the next free page-aligned base, reserving
   the larger of the code image and the placement window so process
   address windows never overlap. *)
let prepare_proc (config : Config.t) ~step ~base (p : Mix.proc) =
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
  ( proc_state_of_compiled config ~step ~pname:p.Mix.pname ~placed
      ~priority:p.Mix.priority ~base ~warea ~trace ~stats:(Stats.create ())
      compiled,
    next_base )

let run ?probe ?(reference_only = false) ?fastforward
    ?(ff_policy = Steady_state.default_policy) ?ff_report ?snapshot_cache
    ~(config : Config.t) ~options mix =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.run: " ^ msg));
  (match Mix.validate mix with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.run: " ^ msg));
  let quantum =
    if options.quantum_cycles <= 0 then max_int else options.quantum_cycles
  in
  let system = Stats.create () in
  let m = Replay.machine ?probe config ~code_base:Simulator.code_base in
  let step =
    if reference_only then Replay.reference_step (Replay.core ?probe m) m
    else Replay.fast_step m
  in
  (* Process 0 sits exactly at [Simulator.code_base] — the identity
     oracle relies on a single-process mix seeing the very addresses
     [Simulator.run] uses. *)
  let procs =
    let next = ref Simulator.code_base in
    Array.of_list
      (List.map
         (fun p ->
           let st, next' = prepare_proc config ~step ~base:!next p in
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
        (proc_state_of_compiled config ~step ~pname:"kernel"
           ~placed:(warea > 0)
           ~priority:0 ~base:Kernel.base ~warea ~trace:k.Kernel.trace
           ~stats:system k.Kernel.compiled)
    end
  in
  let engine = m.Replay.engine and dmem = m.Replay.dmem in
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
  (* Machine-wide retire totals for the probe's [Retire] ticks on the
     fast step (the reference step's core counts them itself). *)
  let m_cycles = ref 0 and m_instrs = ref 0 in
  let exec p k =
    match probe with
    | Some pr when not reference_only ->
        let cycles = !(p.s.Replay.cycles) and instrs = !(p.s.Replay.instrs) in
        p.step k;
        m_cycles := !m_cycles + !(p.s.Replay.cycles) - cycles;
        m_instrs := !m_instrs + !(p.s.Replay.instrs) - instrs;
        pr (Probe.Retire { cycles = !m_cycles; instrs = !m_instrs })
    | Some _ | None -> p.step k
  in
  let finished p = p.k >= Array.length p.s.Replay.blocks in
  let used p = !(p.s.Replay.cycles) - p.since in
  (* Run [p] until its trace ends or [until] holds, checked at block
     boundaries — the block cycle deltas are identical on both steps,
     so scheduling decisions are too. *)
  let run_until p ~until =
    while not (finished p || until ()) do
      exec p p.k;
      p.k <- p.k + 1
    done
  in
  (* Steady-state fast-forward on plain fast runs, one resumable driver
     per user process (the kernel trace is short and replays whole —
     not worth detecting).  Same bail-out structure as [Simulator]:
     probes and reference runs never engage it.  A skip may never
     cross the quantum boundary: the block loop would have taken the
     timer interrupt mid-iteration, so skips are capped at
     [quantum - 1 - used] cycles and the blocks around the expiry run
     one by one — switch points land on exactly the plain loop's block
     boundaries. *)
  let ff_enabled =
    (not reference_only) && Option.is_none probe
    && Option.value fastforward ~default:(Simulator.default_fastforward ())
  in
  let ff =
    if not ff_enabled then [||]
    else
      Array.map
        (fun p ->
          Steady_state.make
            (Replay.ff_ctx
               ~cycle_headroom:(fun () -> quantum - 1 - used p)
               ?report:ff_report ~policy:ff_policy ~cache:snapshot_cache
               config m p.s))
        procs
  in
  (* One dispatch of process [i]: run until its trace ends or the
     quantum expires.  The driver executes blocks through the fast step
     and lands skipped iterations in the same stream totals. *)
  let run_slice i =
    let p = procs.(i) in
    p.dispatches <- p.dispatches + 1;
    p.since <- !(p.s.Replay.cycles);
    let until () = used p >= quantum in
    (if Array.length ff = 0 then run_until p ~until
     else begin
       Steady_state.reawaken ff.(i);
       Steady_state.advance ff.(i) ~until;
       p.k <- Steady_state.pos ff.(i)
     end);
    if not (finished p) then incr timer_fires
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
    run_until ks ~until:(fun () -> false);
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
      | Btb_flush -> Btb.reset m.Replay.btb
      | Btb_shared -> ());
      match probe with
      | None -> ()
      | Some p -> p (Probe.Context_switch { next = i })
    end;
    drowsy_switch_to procs.(i).s.Replay.stats;
    Fetch_engine.set_window engine ~base:procs.(i).base
      ~area_bytes:procs.(i).warea
  in
  let cur = ref (pick ~cur:(n - 1)) in
  clock := procs.(!cur).s.Replay.stats;
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
        dispatch next ~switched:(next <> !cur);
        cur := next
  done;
  Array.iter (fun p -> Replay.finish p.s) procs;
  Option.iter (fun ks -> Replay.finish ks.s) kernel;
  (* Leakage runs on the aggregate fetch clock (every fetch kept lines
     awake, whichever process issued it); align the drowsy state to it
     before finalising into the system account.  With a single process
     and no kernel the clock is already there — no rebase, and the
     leakage is bit-identical to [Simulator.run]'s. *)
  let total f = Array.fold_left (fun acc p -> acc + f p.s.Replay.stats) (f system) procs in
  let agg_fetches = total (fun st -> st.Stats.fetches) in
  if !clock.Stats.fetches <> agg_fetches then
    Fetch_engine.drowsy_rebase engine ~old_now:!clock.Stats.fetches
      ~new_now:agg_fetches;
  let leakage_pj =
    Fetch_engine.leakage_pj engine system
      ~cycles:(total (fun st -> st.Stats.cycles))
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
  Array.iter (fun p -> add_into p.s.Replay.stats) procs;
  add_into system;
  let prices = Config.prices config in
  Array.iter (fun p -> Stats.price p.s.Replay.stats prices ~leakage_pj:0.0) procs;
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
               pr_stats = p.s.Replay.stats;
               pr_dispatches = p.dispatches;
             })
           procs);
    system;
    switches = !switches;
    kernel_runs = !kernel_runs;
    timer_fires = !timer_fires;
  }

let divergences ~fast ~reference =
  let aggregate =
    if Stats.equal fast.aggregate reference.aggregate then []
    else
      [
        Format.asprintf "aggregate diverges:@ %a" Stats.pp_diff
          (fast.aggregate, reference.aggregate);
      ]
  in
  let processes =
    List.concat
      (List.mapi
         (fun i (pf : process_result) ->
           match List.nth_opt reference.processes i with
           | Some pr when Stats.equal pf.pr_stats pr.pr_stats -> []
           | _ -> [ Printf.sprintf "process %d (%s) diverges" i pf.pr_name ])
         fast.processes)
  in
  let switches =
    if fast.switches = reference.switches then []
    else
      [
        Printf.sprintf "%d switches, reference %d" fast.switches
          reference.switches;
      ]
  in
  aggregate @ processes @ switches

let verify_reference ~config ~options mix fast =
  match
    divergences ~fast ~reference:(run ~reference_only:true ~config ~options mix)
  with
  | [] -> Ok ()
  | ds ->
      Error
        ("mp fast path diverges from the reference loop: "
        ^ String.concat "; " ds)
