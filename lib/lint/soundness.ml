module Icfg = Wp_cfg.Icfg
module Basic_block = Wp_cfg.Basic_block
module Addr = Wp_isa.Addr
module Layout = Wp_layout.Binary_layout
module Geometry = Wp_cache.Geometry
module Config = Wp_sim.Config
module Probe = Wp_obs.Probe

type counts = {
  fetches : int;
  elided : int;
  accesses : int;
  must_hit_accesses : int;
  must_miss_accesses : int;
  unknown_accesses : int;
  hits : int;
  misses : int;
}

type result = {
  violations : string list;
  counts : counts;
  analysis : Abstract_icache.t;
}

let max_reported = 20

let coverage c =
  if c.accesses = 0 then 0.0
  else
    float_of_int (c.must_hit_accesses + c.must_miss_accesses)
    /. float_of_int c.accesses

let check ?geometry ?(elision = true) ~program ~layout ~trace () =
  let geometry =
    match geometry with
    | Some g -> g
    | None -> (Config.xscale Config.Baseline).icache
  in
  let graph = program.Wp_workloads.Codegen.graph in
  let analysis = Abstract_icache.analyze ~elision ~graph ~layout ~geometry () in
  let config =
    Config.xscale Config.Baseline |> fun c ->
    Config.with_icache c geometry |> fun c ->
    Config.with_replacement c Wp_cache.Replacement.Lru |> fun c ->
    Config.with_same_line_elision c elision
  in
  let sizes =
    Array.map Basic_block.size_instrs (Icfg.blocks graph)
  in
  let blocks = trace.Wp_workloads.Tracer.blocks in
  let ntrace = Array.length blocks in
  let violations = ref [] in
  let dropped = ref 0 in
  let violate fmt =
    Format.kasprintf
      (fun msg ->
        if List.length !violations < max_reported then
          violations := msg :: !violations
        else incr dropped)
      fmt
  in
  let k = ref 0 and i = ref 0 in
  let prev_addr = ref (-1) in
  let fetches = ref 0
  and elided_n = ref 0
  and accesses = ref 0
  and mh = ref 0
  and mm = ref 0
  and unk = ref 0
  and hits = ref 0
  and misses = ref 0 in
  (* Access awaiting its [Icache_access] event: block, instr, addr. *)
  let pending = ref None in
  let probe (event : Probe.event) =
    match event with
    | Fetch kind -> (
        if !pending <> None then begin
          violate "fetch before the previous access resolved";
          pending := None
        end;
        if !k < ntrace && !i >= sizes.(blocks.(!k)) then begin
          incr k;
          i := 0
        end;
        if !k >= ntrace then
          violate "more fetches than the trace holds"
        else begin
          let b = blocks.(!k) in
          let addr = Layout.block_start layout b + (!i * Wp_isa.Instr.size_bytes) in
          incr fetches;
          let expect_elide =
            elision && !prev_addr >= 0
            && Geometry.same_line geometry addr !prev_addr
          in
          (match kind with
          | Probe.Same_line ->
              incr elided_n;
              if not expect_elide then
                violate
                  "B%d/%d at %a: engine elided a fetch the analysis did not \
                   predict"
                  b !i Addr.pp addr
          | Probe.Full ->
              if expect_elide then
                violate
                  "B%d/%d at %a: engine accessed the cache on a predicted \
                   same-line fetch"
                  b !i Addr.pp addr;
              pending := Some (b, !i, addr)
          | Probe.Way_placed | Probe.Link_follow ->
              violate "B%d/%d: %s fetch in a baseline run" b !i
                (Probe.fetch_kind_name kind));
          prev_addr := addr;
          incr i
        end)
    | Icache_access { hit } -> (
        match !pending with
        | None -> violate "icache access with no fetch in flight"
        | Some (b, instr, addr) ->
            pending := None;
            incr accesses;
            if hit then incr hits else incr misses;
            let cls = Abstract_icache.classify analysis ~block:b ~instr in
            (match cls with
            | Abstract_icache.Must_hit ->
                incr mh;
                if not hit then
                  violate "B%d/%d at %a: statically must-hit access missed" b
                    instr Addr.pp addr
            | Must_miss ->
                incr mm;
                if hit then
                  violate "B%d/%d at %a: statically must-miss access hit" b
                    instr Addr.pp addr
            | Unknown -> incr unk
            | Elided ->
                violate
                  "B%d/%d at %a: statically elided site performed a cache \
                   access"
                  b instr Addr.pp addr
            | Unreachable ->
                violate "B%d/%d at %a: statically unreachable block executed"
                  b instr Addr.pp addr))
    | _ -> ()
  in
  let stats =
    Wp_sim.Simulator.run_compiled ~probe ~config ~trace
      (Wp_sim.Compiled_trace.make ~program ~layout)
  in
  if !pending <> None then violate "run ended with an unresolved access";
  if !fetches <> trace.Wp_workloads.Tracer.dynamic_instrs then
    violate "saw %d fetch events for %d trace instructions" !fetches
      trace.Wp_workloads.Tracer.dynamic_instrs;
  if !hits <> stats.Wp_sim.Stats.icache_hits
     || !misses <> stats.Wp_sim.Stats.icache_misses
  then
    violate "probe hits/misses %d/%d disagree with stats %d/%d" !hits !misses
      stats.Wp_sim.Stats.icache_hits stats.Wp_sim.Stats.icache_misses;
  if !dropped > 0 then
    violations := Printf.sprintf "... and %d more violations" !dropped
                  :: !violations;
  {
    violations = List.rev !violations;
    counts =
      {
        fetches = !fetches;
        elided = !elided_n;
        accesses = !accesses;
        must_hit_accesses = !mh;
        must_miss_accesses = !mm;
        unknown_accesses = !unk;
        hits = !hits;
        misses = !misses;
      };
    analysis;
  }
