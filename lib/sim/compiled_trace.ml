open Wp_cfg

type mem_op = {
  pos : int;
  write : bool;
  locality : Wp_isa.Instr.data_locality;
}

type block_info = {
  start : Wp_isa.Addr.t;
  n_instrs : int;
  term_branch : bool;
  term_pc : Wp_isa.Addr.t;
  taken_succ : int;
  mem : mem_op array;
  seq_bytes : int;
  stride_bytes : int;
  n_random : int;
}

type plan_block = { runs : int array; run_cycles : int array }
type plan = plan_block array

type t = {
  program : Wp_workloads.Codegen.t;
  layout : Wp_layout.Binary_layout.t;
  token : int;
  bodies : Wp_isa.Instr.t array array;
  info : block_info array;
  plans_lock : Mutex.t;
  mutable plans : (int * plan) list;
      (** one entry per distinct [line_bytes] seen; tiny in practice *)
}

(* Process-unique identity per compiled trace: snapshot-cache scopes
   key on it, so effects recorded replaying one (program, layout) can
   only ever serve runs replaying the very same compiled trace. *)
let next_token = Atomic.make 0

let make ~(program : Wp_workloads.Codegen.t) ~layout =
  let graph = program.Wp_workloads.Codegen.graph in
  let n = Icfg.num_blocks graph in
  let bodies = Array.init n (fun id -> (Icfg.block graph id).Basic_block.instrs) in
  let info =
    Array.init n (fun id ->
        let body = bodies.(id) in
        let nb = Array.length body in
        let mem =
          let acc = ref [] in
          for i = nb - 1 downto 0 do
            let instr = body.(i) in
            match instr.Wp_isa.Instr.opcode with
            | Wp_isa.Opcode.Load ->
                acc :=
                  { pos = i; write = false; locality = instr.Wp_isa.Instr.locality }
                  :: !acc
            | Wp_isa.Opcode.Store ->
                acc :=
                  { pos = i; write = true; locality = instr.Wp_isa.Instr.locality }
                  :: !acc
            | Wp_isa.Opcode.Alu _ | Mac | Branch | Jump | Call | Return | Nop ->
                ()
          done;
          Array.of_list !acc
        in
        let start = Wp_layout.Binary_layout.block_start layout id in
        (* Per-block data-stream advance totals, for the fast-forward
           detector's loop pre-filter: sequential accesses move the
           stream cursor 4 bytes each, strided accesses by their
           stride, random accesses draw from the RNG. *)
        let seq_bytes = ref 0 and stride_bytes = ref 0 and n_random = ref 0 in
        Array.iter
          (fun m ->
            match m.locality with
            | Wp_isa.Instr.No_data -> ()
            | Wp_isa.Instr.Sequential -> seq_bytes := !seq_bytes + 4
            | Wp_isa.Instr.Strided s -> stride_bytes := !stride_bytes + s
            | Wp_isa.Instr.Random_within _ -> incr n_random)
          mem;
        {
          start;
          n_instrs = nb;
          term_branch =
            nb > 0 && body.(nb - 1).Wp_isa.Instr.opcode = Wp_isa.Opcode.Branch;
          term_pc = start + ((nb - 1) * Wp_isa.Instr.size_bytes);
          taken_succ =
            (match Icfg.taken_succ graph id with Some b -> b | None -> -1);
          mem;
          seq_bytes = !seq_bytes;
          stride_bytes = !stride_bytes;
          n_random = !n_random;
        })
  in
  {
    program;
    layout;
    token = Atomic.fetch_and_add next_token 1;
    bodies;
    info;
    plans_lock = Mutex.create ();
    plans = [];
  }

let program t = t.program
let layout t = t.layout
let token t = t.token
let bodies t = t.bodies
let info t = t.info

let matches t ~program ~layout = t.program == program && t.layout == layout

(* Split each block into maximal same-line runs: consecutive pcs whose
   line base is unchanged.  [run_cycles] pre-sums the per-instruction
   execute latencies of the run (the core model's [1 + exec_extra]
   term), so the replay loop adds one int per run instead of one per
   instruction. *)
let compute_plan t ~line_bytes =
  let mask = lnot (line_bytes - 1) in
  Array.init (Array.length t.info) (fun id ->
      let body = t.bodies.(id) in
      let nb = Array.length body in
      if nb = 0 then { runs = [||]; run_cycles = [||] }
      else begin
        let start = t.info.(id).start in
        let runs = ref [] and cycles = ref [] in
        let line = ref (start land mask) in
        let len = ref 0 and cyc = ref 0 in
        for i = 0 to nb - 1 do
          let pc = start + (i * Wp_isa.Instr.size_bytes) in
          let l = pc land mask in
          if l <> !line then begin
            runs := !len :: !runs;
            cycles := !cyc :: !cycles;
            line := l;
            len := 0;
            cyc := 0
          end;
          incr len;
          cyc :=
            !cyc + Wp_isa.Opcode.execute_latency body.(i).Wp_isa.Instr.opcode
        done;
        runs := !len :: !runs;
        cycles := !cyc :: !cycles;
        {
          runs = Array.of_list (List.rev !runs);
          run_cycles = Array.of_list (List.rev !cycles);
        }
      end)

let plan t ~line_bytes =
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Compiled_trace.plan: line_bytes must be a positive power of two";
  (* Prepared benchmarks are shared across sweep/fuzzer domains, so the
     per-line-size memo is guarded.  The lock is held only around list
     reads/writes, under [Fun.protect] so no exception can leave it
     locked, and never across [compute_plan]: the plan is a pure
     function of [(t, line_bytes)], so two domains racing the first
     call may both compute it, and the re-check under the lock dedups
     them — the first insert wins and both callers return the same
     (structurally identical, now shared) plan. *)
  let locked f =
    Mutex.lock t.plans_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.plans_lock) f
  in
  match locked (fun () -> List.assoc_opt line_bytes t.plans) with
  | Some p -> p
  | None ->
      let p = compute_plan t ~line_bytes in
      locked (fun () ->
          match List.assoc_opt line_bytes t.plans with
          | Some existing -> existing
          | None ->
              t.plans <- (line_bytes, p) :: t.plans;
              p)
