type t = { accesses : int; misses : int; tlb_misses : int }

let data_stream compiled =
  let spec = (Compiled_trace.program compiled).Wp_workloads.Codegen.spec in
  Data_stream.create ~seed:(spec.Wp_workloads.Spec.seed lxor 0xDA7A)

let replay_block dmem data stats (b : Compiled_trace.block_info) =
  let mem = b.Compiled_trace.mem in
  let stall = ref 0 in
  for i = 0 to Array.length mem - 1 do
    let op = mem.(i) in
    stall :=
      !stall
      + Dmem.access dmem stats
          (Data_stream.next data op.Compiled_trace.locality)
          ~write:op.Compiled_trace.write
  done;
  !stall

let compute config ~blocks compiled =
  let dmem = Dmem.create config in
  let data = data_stream compiled in
  let info = Compiled_trace.info compiled in
  let stats = Stats.create () in
  Array.iter (fun id -> ignore (replay_block dmem data stats info.(id))) blocks;
  {
    accesses = stats.Stats.dcache_accesses;
    misses = stats.Stats.dcache_misses;
    tlb_misses = stats.Stats.dtlb_misses;
  }

(* Everything a pass's outcome depends on besides the trace: latencies
   are left out, they only price the counts ({!add}). *)
type key = {
  dcache : Wp_cache.Geometry.t;
  replacement : Wp_cache.Replacement.t;
  dtlb_entries : int;
  page_bytes : int;
  seed : int;
}

let key_of (config : Config.t) compiled =
  let spec = (Compiled_trace.program compiled).Wp_workloads.Codegen.spec in
  {
    dcache = config.dcache;
    replacement = config.replacement;
    dtlb_entries = config.dtlb_entries;
    page_bytes = config.page_bytes;
    seed = spec.Wp_workloads.Spec.seed;
  }

(* Weak memo on the block array, the same shape as the fast-forward
   plan memo: generated traces (the fuzz corpus) must not accumulate,
   and a dead trace's totals go with it. *)
let slots = 64
let keys : int array Weak.t = Weak.create slots
let vals : (key * t) option array = Array.make slots None
let clock = ref 0
let lock = Mutex.create ()

let find blocks key =
  let rec go i =
    if i >= slots then None
    else
      match (Weak.get keys i, vals.(i)) with
      | Some b, Some (k, v) when b == blocks && k = key -> Some v
      | _ -> go (i + 1)
  in
  go 0

let totals config ~blocks compiled =
  let key = key_of config compiled in
  Mutex.lock lock;
  let hit = find blocks key in
  Mutex.unlock lock;
  match hit with
  | Some v -> v
  | None -> (
      (* The pass runs outside the lock — it is pure; a racing domain
         at worst duplicates it and the first insert wins. *)
      let v = compute config ~blocks compiled in
      Mutex.lock lock;
      match find blocks key with
      | Some v' ->
          Mutex.unlock lock;
          v'
      | None ->
          let i = !clock mod slots in
          incr clock;
          Weak.set keys i (Some blocks);
          vals.(i) <- Some (key, v);
          Mutex.unlock lock;
          v)

let add (config : Config.t) (stats : Stats.t) t =
  stats.Stats.dcache_accesses <- stats.Stats.dcache_accesses + t.accesses;
  stats.Stats.dcache_misses <- stats.Stats.dcache_misses + t.misses;
  stats.Stats.dtlb_misses <- stats.Stats.dtlb_misses + t.tlb_misses;
  (t.misses * config.memory_latency) + (t.tlb_misses * config.tlb_walk_latency)
