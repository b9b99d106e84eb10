type t = {
  name : string;
  seed : int;
  num_funcs : int;
  blocks_per_func_min : int;
  blocks_per_func_max : int;
  instrs_per_block_min : int;
  instrs_per_block_max : int;
  max_loop_depth : int;
  avg_loop_trips : int;
  hot_func_fraction : float;
  hot_call_bias : float;
  if_taken_bias : float;
  mem_ratio : float;
  mac_ratio : float;
  data_working_set_bytes : int;
  trace_blocks_large : int;
  trace_blocks_small : int;
}

let validate t =
  let check cond msg = if cond then Ok () else Error (t.name ^ ": " ^ msg) in
  let ( let* ) = Result.bind in
  let* () = check (t.num_funcs >= 1) "needs at least one function" in
  let* () =
    check
      (t.blocks_per_func_min >= 1 && t.blocks_per_func_min <= t.blocks_per_func_max)
      "bad blocks-per-function range"
  in
  let* () =
    check
      (t.instrs_per_block_min >= 1
      && t.instrs_per_block_min <= t.instrs_per_block_max)
      "bad instrs-per-block range"
  in
  let* () = check (t.max_loop_depth >= 0) "negative loop depth" in
  let* () = check (t.avg_loop_trips >= 1) "loops need at least one trip" in
  let frac x = x >= 0.0 && x <= 1.0 in
  let* () = check (frac t.hot_func_fraction) "hot_func_fraction out of [0,1]" in
  let* () = check (frac t.hot_call_bias) "hot_call_bias out of [0,1]" in
  let* () = check (frac t.if_taken_bias) "if_taken_bias out of [0,1]" in
  let* () =
    check (frac t.mem_ratio && frac t.mac_ratio && t.mem_ratio +. t.mac_ratio <= 1.0)
      "instruction mix fractions out of range"
  in
  let* () = check (t.data_working_set_bytes >= 64) "data working set too small" in
  let* () =
    check (t.trace_blocks_large >= 1 && t.trace_blocks_small >= 1)
      "trace budgets must be positive"
  in
  Ok ()

let random rng ~name =
  let num_funcs = Rng.int_in rng ~min:1 ~max:15 in
  let blocks_per_func_min = Rng.int_in rng ~min:1 ~max:3 in
  let blocks_per_func_max =
    blocks_per_func_min + Rng.int_in rng ~min:0 ~max:8
  in
  let instrs_per_block_min = Rng.int_in rng ~min:1 ~max:4 in
  let instrs_per_block_max =
    instrs_per_block_min + Rng.int_in rng ~min:0 ~max:8
  in
  let mem_ratio = Rng.float rng *. 0.5 in
  let mac_ratio = Rng.float rng *. (1.0 -. mem_ratio) *. 0.5 in
  {
    name;
    seed = Rng.int rng 1_000_000;
    num_funcs;
    blocks_per_func_min;
    blocks_per_func_max;
    instrs_per_block_min;
    instrs_per_block_max;
    max_loop_depth = Rng.int_in rng ~min:0 ~max:3;
    avg_loop_trips = Rng.int_in rng ~min:1 ~max:8;
    hot_func_fraction = Rng.float rng;
    hot_call_bias = Rng.float rng;
    if_taken_bias = Rng.float rng;
    mem_ratio;
    mac_ratio;
    data_working_set_bytes = 64 lsl Rng.int_in rng ~min:0 ~max:8;
    trace_blocks_large = Rng.int_in rng ~min:80 ~max:1200;
    trace_blocks_small = Rng.int_in rng ~min:40 ~max:400;
  }

let static_code_estimate_bytes t =
  let avg_blocks = (t.blocks_per_func_min + t.blocks_per_func_max) / 2 in
  let avg_instrs = (t.instrs_per_block_min + t.instrs_per_block_max) / 2 in
  t.num_funcs * avg_blocks * avg_instrs * Wp_isa.Instr.size_bytes

let pp ppf t =
  Format.fprintf ppf "%s (seed %d, ~%d B code, %d funcs)" t.name t.seed
    (static_code_estimate_bytes t)
    t.num_funcs
