open Wp_workloads

let spec_of_seed seed =
  let spec = Spec.random (Rng.create seed) ~name:(Printf.sprintf "fuzz%d" seed) in
  (match Spec.validate spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Progen.spec_of_seed: generated invalid spec: " ^ msg));
  spec

let size (s : Spec.t) =
  Spec.static_code_estimate_bytes s
  + s.Spec.trace_blocks_large + s.Spec.trace_blocks_small
  + s.Spec.avg_loop_trips + s.Spec.max_loop_depth
  + (s.Spec.data_working_set_bytes / 64)

let shrink_candidates (s : Spec.t) =
  let half x = x / 2 in
  let candidates =
    [
      { s with Spec.trace_blocks_large = max 1 (half s.Spec.trace_blocks_large) };
      { s with Spec.num_funcs = max 1 (half s.Spec.num_funcs) };
      { s with Spec.num_funcs = s.Spec.num_funcs - 1 };
      {
        s with
        Spec.blocks_per_func_max =
          max s.Spec.blocks_per_func_min (half s.Spec.blocks_per_func_max);
      };
      { s with Spec.blocks_per_func_min = 1; blocks_per_func_max = 1 };
      {
        s with
        Spec.instrs_per_block_max =
          max s.Spec.instrs_per_block_min (half s.Spec.instrs_per_block_max);
      };
      { s with Spec.instrs_per_block_min = 1; instrs_per_block_max = 1 };
      { s with Spec.max_loop_depth = s.Spec.max_loop_depth - 1 };
      { s with Spec.avg_loop_trips = max 1 (half s.Spec.avg_loop_trips) };
      { s with Spec.trace_blocks_small = max 1 (half s.Spec.trace_blocks_small) };
      {
        s with
        Spec.data_working_set_bytes = max 64 (half s.Spec.data_working_set_bytes);
      };
    ]
  in
  List.filter
    (fun c -> size c < size s && Result.is_ok (Spec.validate c))
    candidates

let rec minimize ~failing spec =
  match List.find_opt failing (shrink_candidates spec) with
  | Some smaller -> minimize ~failing smaller
  | None -> spec

(* ------------------------------------------------------------------ *)
(* Process mixes ({!Wp_mp.Mix.of_seed}) shrink at the spec level: drop
   a process, or shrink one member. *)

let mix_size mix =
  List.fold_left
    (fun acc (p : Wp_mp.Mix.proc) -> acc + 1 + size p.Wp_mp.Mix.spec)
    0 mix

let mix_shrink_candidates mix =
  let drops =
    if List.length mix <= 1 then []
    else List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) mix) mix
  in
  let member_shrinks =
    List.concat (List.mapi
      (fun i (p : Wp_mp.Mix.proc) ->
        List.map
          (fun spec' ->
            List.mapi
              (fun j q -> if j = i then { p with Wp_mp.Mix.spec = spec' } else q)
              mix)
          (shrink_candidates p.Wp_mp.Mix.spec))
      mix)
  in
  drops @ member_shrinks

let rec minimize_mix ~failing mix =
  match List.find_opt failing (mix_shrink_candidates mix) with
  | Some smaller -> minimize_mix ~failing smaller
  | None -> mix
