type t = {
  mutable fetches : int;
  mutable same_line_fetches : int;
  mutable wp_fetches : int;
  mutable full_fetches : int;
  mutable icache_hits : int;
  mutable icache_misses : int;
  mutable tag_comparisons : int;
  mutable tag_ways : int;
  mutable data_reads : int;
  mutable hint_correct_wp : int;
  mutable hint_correct_normal : int;
  mutable hint_missed_saving : int;
  mutable hint_reaccess : int;
  mutable waypred_correct : int;
  mutable waypred_wrong : int;
  mutable l0_hits : int;
  mutable l0_misses : int;
  mutable drowsy_wakes : int;
  mutable link_follows : int;
  mutable link_writes : int;
  mutable links_invalidated : int;
  mutable itlb_misses : int;
  mutable dtlb_misses : int;
  mutable dcache_accesses : int;
  mutable dcache_misses : int;
  mutable cycles : int;
  mutable retired_instrs : int;
  energy : float array;
}

let create () =
  {
    fetches = 0;
    same_line_fetches = 0;
    wp_fetches = 0;
    full_fetches = 0;
    icache_hits = 0;
    icache_misses = 0;
    tag_comparisons = 0;
    tag_ways = 0;
    data_reads = 0;
    hint_correct_wp = 0;
    hint_correct_normal = 0;
    hint_missed_saving = 0;
    hint_reaccess = 0;
    waypred_correct = 0;
    waypred_wrong = 0;
    l0_hits = 0;
    l0_misses = 0;
    drowsy_wakes = 0;
    link_follows = 0;
    link_writes = 0;
    links_invalidated = 0;
    itlb_misses = 0;
    dtlb_misses = 0;
    dcache_accesses = 0;
    dcache_misses = 0;
    cycles = 0;
    retired_instrs = 0;
    energy = Array.make (List.length Wp_energy.Price.buckets) 0.0;
  }

(* One table of every integer counter drives the fast-forward snapshots,
   [equal], [pp_diff] and the store's [layout], so none of them can
   disagree about which fields exist; a counter added to [t] must be
   added here (the differential tests cross-check totals, so an omission
   shows up as a conservation-law failure, not silence). *)
let int_fields =
  [
    ("fetches", (fun t -> t.fetches), fun t v -> t.fetches <- v);
    ("same_line_fetches", (fun t -> t.same_line_fetches), fun t v -> t.same_line_fetches <- v);
    ("wp_fetches", (fun t -> t.wp_fetches), fun t v -> t.wp_fetches <- v);
    ("full_fetches", (fun t -> t.full_fetches), fun t v -> t.full_fetches <- v);
    ("icache_hits", (fun t -> t.icache_hits), fun t v -> t.icache_hits <- v);
    ("icache_misses", (fun t -> t.icache_misses), fun t v -> t.icache_misses <- v);
    ("tag_comparisons", (fun t -> t.tag_comparisons), fun t v -> t.tag_comparisons <- v);
    ("tag_ways", (fun t -> t.tag_ways), fun t v -> t.tag_ways <- v);
    ("data_reads", (fun t -> t.data_reads), fun t v -> t.data_reads <- v);
    ("hint_correct_wp", (fun t -> t.hint_correct_wp), fun t v -> t.hint_correct_wp <- v);
    ("hint_correct_normal", (fun t -> t.hint_correct_normal), fun t v -> t.hint_correct_normal <- v);
    ("hint_missed_saving", (fun t -> t.hint_missed_saving), fun t v -> t.hint_missed_saving <- v);
    ("hint_reaccess", (fun t -> t.hint_reaccess), fun t v -> t.hint_reaccess <- v);
    ("waypred_correct", (fun t -> t.waypred_correct), fun t v -> t.waypred_correct <- v);
    ("waypred_wrong", (fun t -> t.waypred_wrong), fun t v -> t.waypred_wrong <- v);
    ("l0_hits", (fun t -> t.l0_hits), fun t v -> t.l0_hits <- v);
    ("l0_misses", (fun t -> t.l0_misses), fun t v -> t.l0_misses <- v);
    ("drowsy_wakes", (fun t -> t.drowsy_wakes), fun t v -> t.drowsy_wakes <- v);
    ("link_follows", (fun t -> t.link_follows), fun t v -> t.link_follows <- v);
    ("link_writes", (fun t -> t.link_writes), fun t v -> t.link_writes <- v);
    ("links_invalidated", (fun t -> t.links_invalidated), fun t v -> t.links_invalidated <- v);
    ("itlb_misses", (fun t -> t.itlb_misses), fun t v -> t.itlb_misses <- v);
    ("dtlb_misses", (fun t -> t.dtlb_misses), fun t v -> t.dtlb_misses <- v);
    ("dcache_accesses", (fun t -> t.dcache_accesses), fun t v -> t.dcache_accesses <- v);
    ("dcache_misses", (fun t -> t.dcache_misses), fun t v -> t.dcache_misses <- v);
    ("cycles", (fun t -> t.cycles), fun t v -> t.cycles <- v);
    ("retired_instrs", (fun t -> t.retired_instrs), fun t v -> t.retired_instrs <- v);
  ]

(* Counters are pure sums, so [k] skipped loop iterations contribute
   exactly [k] times the recorded iteration's delta. *)
let snapshot_ints t = Array.of_list (List.map (fun (_, get, _) -> get t) int_fields)

let n_ints = List.length int_fields

let add_scaled_delta t ~before ~after ~times =
  if Array.length before <> n_ints || Array.length after <> n_ints then
    invalid_arg "Stats.add_scaled_delta: snapshots must come from snapshot_ints";
  List.iteri
    (fun i (_, get, set) -> set t (get t + (times * (after.(i) - before.(i)))))
    int_fields

let counts t =
  {
    Wp_energy.Price.fetches = t.fetches;
    same_line_fetches = t.same_line_fetches;
    tag_ways = t.tag_ways;
    data_reads = t.data_reads;
    icache_misses = t.icache_misses;
    link_writes = t.link_writes;
    l0_probes = t.l0_hits + t.l0_misses;
    drowsy_wakes = t.drowsy_wakes;
    itlb_misses = t.itlb_misses;
    dtlb_misses = t.dtlb_misses;
    dcache_accesses = t.dcache_accesses;
    dcache_misses = t.dcache_misses;
    cycles = t.cycles;
  }

let price t prices ~leakage_pj =
  let e = Wp_energy.Price.price prices (counts t) ~leakage_pj in
  Array.blit e 0 t.energy 0 (Array.length e)

let energy_pj t b = t.energy.(Wp_energy.Price.bucket_index b)
let icache_energy_pj t = energy_pj t Wp_energy.Price.Icache

let total_energy_pj t =
  t.energy.(0) +. t.energy.(1) +. t.energy.(2) +. t.energy.(3) +. t.energy.(4)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let icache_miss_rate t = ratio t.icache_misses t.fetches
let same_line_rate t = ratio t.same_line_fetches t.fetches

let hint_accuracy t =
  let consulted =
    t.hint_correct_wp + t.hint_correct_normal + t.hint_missed_saving
    + t.hint_reaccess
  in
  if consulted = 0 then 1.0
  else ratio (t.hint_correct_wp + t.hint_correct_normal) consulted

let energy_fields =
  List.map
    (fun b -> (Wp_energy.Price.bucket_name b ^ "_pj", fun t -> energy_pj t b))
    Wp_energy.Price.buckets

let int_getters = List.map (fun (name, get, _) -> (name, get)) int_fields

let layout =
  String.concat "," (List.map fst int_getters @ List.map fst energy_fields)

let equal a b =
  List.for_all (fun (_, f) -> f a = f b) int_getters
  && List.for_all (fun (_, f) -> Float.equal (f a) (f b)) energy_fields

let pp_diff ppf (a, b) =
  let diffs =
    List.filter_map
      (fun (name, f) ->
        if f a = f b then None
        else Some (Printf.sprintf "%s: %d <> %d" name (f a) (f b)))
      int_getters
    @ List.filter_map
        (fun (name, f) ->
          if Float.equal (f a) (f b) then None
          else Some (Printf.sprintf "%s: %.17g <> %.17g" name (f a) (f b)))
        energy_fields
  in
  match diffs with
  | [] -> Format.fprintf ppf "(no differing fields)"
  | diffs ->
      Format.fprintf ppf "@[<v>%a@]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
        diffs

let pp_brief ppf t =
  Format.fprintf ppf
    "fetches=%d (SL %.1f%%, miss %.3f%%) cycles=%d E(icache)=%.0fpJ"
    t.fetches
    (100.0 *. same_line_rate t)
    (100.0 *. icache_miss_rate t)
    t.cycles (icache_energy_pj t)

let pp_energy ppf t =
  let total = total_energy_pj t in
  Format.fprintf ppf
    "E[pJ]: icache=%.0f itlb=%.0f dcache=%.0f mem=%.0f core=%.0f (icache %.1f%%)"
    t.energy.(0) t.energy.(1) t.energy.(2) t.energy.(3) t.energy.(4)
    (if total <= 0.0 then 0.0 else 100.0 *. t.energy.(0) /. total)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>fetches: %d (same-line %d, way-placed %d, full %d)@,\
     i-cache: %d hits / %d misses (%.4f%% miss), %d tag comparisons@,\
     hint: %d/%d correct wp/normal, %d missed, %d re-accesses@,\
     links: %d follows, %d writes, %d invalidated@,\
     tlb misses: i=%d d=%d; d-cache: %d accesses, %d misses@,\
     cycles: %d (IPC %.3f); %a@]"
    t.fetches t.same_line_fetches t.wp_fetches t.full_fetches t.icache_hits
    t.icache_misses
    (100.0 *. icache_miss_rate t)
    t.tag_comparisons t.hint_correct_wp t.hint_correct_normal
    t.hint_missed_saving t.hint_reaccess t.link_follows t.link_writes
    t.links_invalidated t.itlb_misses t.dtlb_misses t.dcache_accesses
    t.dcache_misses t.cycles
    (ratio t.retired_instrs t.cycles)
    pp_energy t
