module Counter = struct
  type t =
    | Same_line_fetches
    | Wp_fetches
    | Full_fetches
    | Link_follows
    | Icache_hits
    | Icache_misses
    | L0_hits
    | L0_misses
    | Tag_comparisons
    | Tag_ways
    | Data_reads
    | Hint_correct_wp
    | Hint_correct_normal
    | Hint_missed_saving
    | Hint_reaccess
    | Waypred_correct
    | Waypred_wrong
    | Drowsy_wakes
    | Link_writes
    | Links_invalidated
    | Itlb_misses
    | Dtlb_misses
    | Dcache_accesses
    | Dcache_misses
    | Line_fills
    | Evictions

  let index = function
    | Same_line_fetches -> 0
    | Wp_fetches -> 1
    | Full_fetches -> 2
    | Link_follows -> 3
    | Icache_hits -> 4
    | Icache_misses -> 5
    | L0_hits -> 6
    | L0_misses -> 7
    | Tag_comparisons -> 8
    | Tag_ways -> 9
    | Data_reads -> 10
    | Hint_correct_wp -> 11
    | Hint_correct_normal -> 12
    | Hint_missed_saving -> 13
    | Hint_reaccess -> 14
    | Waypred_correct -> 15
    | Waypred_wrong -> 16
    | Drowsy_wakes -> 17
    | Link_writes -> 18
    | Links_invalidated -> 19
    | Itlb_misses -> 20
    | Dtlb_misses -> 21
    | Dcache_accesses -> 22
    | Dcache_misses -> 23
    | Line_fills -> 24
    | Evictions -> 25

  let name = function
    | Same_line_fetches -> "same_line_fetches"
    | Wp_fetches -> "wp_fetches"
    | Full_fetches -> "full_fetches"
    | Link_follows -> "link_follows"
    | Icache_hits -> "icache_hits"
    | Icache_misses -> "icache_misses"
    | L0_hits -> "l0_hits"
    | L0_misses -> "l0_misses"
    | Tag_comparisons -> "tag_comparisons"
    | Tag_ways -> "tag_ways"
    | Data_reads -> "data_reads"
    | Hint_correct_wp -> "hint_correct_wp"
    | Hint_correct_normal -> "hint_correct_normal"
    | Hint_missed_saving -> "hint_missed_saving"
    | Hint_reaccess -> "hint_reaccess"
    | Waypred_correct -> "waypred_correct"
    | Waypred_wrong -> "waypred_wrong"
    | Drowsy_wakes -> "drowsy_wakes"
    | Link_writes -> "link_writes"
    | Links_invalidated -> "links_invalidated"
    | Itlb_misses -> "itlb_misses"
    | Dtlb_misses -> "dtlb_misses"
    | Dcache_accesses -> "dcache_accesses"
    | Dcache_misses -> "dcache_misses"
    | Line_fills -> "line_fills"
    | Evictions -> "evictions"

  let all =
    [
      Same_line_fetches;
      Wp_fetches;
      Full_fetches;
      Link_follows;
      Icache_hits;
      Icache_misses;
      L0_hits;
      L0_misses;
      Tag_comparisons;
      Tag_ways;
      Data_reads;
      Hint_correct_wp;
      Hint_correct_normal;
      Hint_missed_saving;
      Hint_reaccess;
      Waypred_correct;
      Waypred_wrong;
      Drowsy_wakes;
      Link_writes;
      Links_invalidated;
      Itlb_misses;
      Dtlb_misses;
      Dcache_accesses;
      Dcache_misses;
      Line_fills;
      Evictions;
    ]

  let count = List.length all
end

type marker =
  | Resize of { cycle : int; area_bytes : int }
  | Flush of { cycle : int }
  | Switch of { cycle : int; next : int }

let marker_cycle = function
  | Resize { cycle; _ } -> cycle
  | Flush { cycle } -> cycle
  | Switch { cycle; _ } -> cycle

type window = {
  index : int;
  start_cycle : int;
  end_cycle : int;
  retired : int;
  counters : int array;
  leakage_pj : float;
  ways_hist : (int * int) list;
  markers : marker list;
}

let get w c = w.counters.(Counter.index c)

let fetches w =
  get w Same_line_fetches + get w Wp_fetches + get w Full_fetches
  + get w Link_follows

let cycles w = w.end_cycle - w.start_cycle

let ipc w =
  let c = cycles w in
  if c = 0 then 0.0 else float_of_int w.retired /. float_of_int c

let default_window_cycles = 10_000

type t = {
  window_cycles : int;
  mutable closed : window list; (* reversed *)
  mutable index : int;
  mutable cycles : int; (* cumulative, from the last Retire *)
  mutable instrs : int;
  mutable next_boundary : int;
  mutable start_cycle : int;
  mutable start_instrs : int;
  counters : int array;
  mutable leakage : float;
  ways : (int, int ref) Hashtbl.t;
  mutable markers : marker list; (* reversed, current window *)
  mutable finished : bool;
}

let create ?(window_cycles = default_window_cycles) () =
  if window_cycles <= 0 then
    invalid_arg "Sampler.create: window_cycles must be positive";
  {
    window_cycles;
    closed = [];
    index = 0;
    cycles = 0;
    instrs = 0;
    next_boundary = window_cycles;
    start_cycle = 0;
    start_instrs = 0;
    counters = Array.make Counter.count 0;
    leakage = 0.0;
    ways = Hashtbl.create 7;
    markers = [];
    finished = false;
  }

let window_is_empty t =
  t.cycles = t.start_cycle
  && t.instrs = t.start_instrs
  && t.markers = []
  && Array.for_all (fun c -> c = 0) t.counters
  && t.leakage = 0.0

let close_window t =
  let ways_hist =
    Hashtbl.fold (fun ways n acc -> (ways, !n) :: acc) t.ways []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let w =
    {
      index = t.index;
      start_cycle = t.start_cycle;
      end_cycle = t.cycles;
      retired = t.instrs - t.start_instrs;
      counters = Array.copy t.counters;
      leakage_pj = t.leakage;
      ways_hist;
      markers = List.rev t.markers;
    }
  in
  t.closed <- w :: t.closed;
  t.index <- t.index + 1;
  t.start_cycle <- t.cycles;
  t.start_instrs <- t.instrs;
  t.next_boundary <- ((t.cycles / t.window_cycles) + 1) * t.window_cycles;
  Array.fill t.counters 0 Counter.count 0;
  t.leakage <- 0.0;
  Hashtbl.reset t.ways;
  t.markers <- []

let bump t c = t.counters.(Counter.index c) <- t.counters.(Counter.index c) + 1

let bump_by t c n =
  t.counters.(Counter.index c) <- t.counters.(Counter.index c) + n

let handle t (ev : Probe.event) =
  if not t.finished then
    match ev with
    | Fetch Same_line -> bump t Same_line_fetches
    | Fetch Way_placed -> bump t Wp_fetches
    | Fetch Full -> bump t Full_fetches
    | Fetch Link_follow -> bump t Link_follows
    | Icache_access { hit } ->
        bump t (if hit then Icache_hits else Icache_misses)
    | L0_access { hit } -> bump t (if hit then L0_hits else L0_misses)
    | Tag_comparisons n -> bump_by t Tag_comparisons n
    | Tag_ways n -> bump_by t Tag_ways n
    | Data_reads n -> bump_by t Data_reads n
    | Tag_search { ways } -> (
        match Hashtbl.find_opt t.ways ways with
        | Some n -> incr n
        | None -> Hashtbl.add t.ways ways (ref 1))
    | Line_fill { evicted } ->
        bump t Line_fills;
        if evicted then bump t Evictions
    | Hint Correct_wp -> bump t Hint_correct_wp
    | Hint Correct_normal -> bump t Hint_correct_normal
    | Hint Missed_saving -> bump t Hint_missed_saving
    | Hint Reaccess -> bump t Hint_reaccess
    | Way_prediction { correct } ->
        bump t (if correct then Waypred_correct else Waypred_wrong)
    | Link_write -> bump t Link_writes
    | Links_invalidated n -> bump_by t Links_invalidated n
    | Drowsy_wake -> bump t Drowsy_wakes
    | Itlb_miss -> bump t Itlb_misses
    | Dtlb_miss -> bump t Dtlb_misses
    | Dcache_access { miss } ->
        bump t Dcache_accesses;
        if miss then bump t Dcache_misses
    | Leakage { pj } -> t.leakage <- t.leakage +. pj
    | Retire { cycles; instrs } ->
        t.cycles <- cycles;
        t.instrs <- instrs;
        if cycles >= t.next_boundary then close_window t
    | Resize { area_bytes } ->
        t.markers <- Resize { cycle = t.cycles; area_bytes } :: t.markers
    | Flush -> t.markers <- Flush { cycle = t.cycles } :: t.markers
    | Context_switch { next } ->
        t.markers <- Switch { cycle = t.cycles; next } :: t.markers

let probe t : Probe.t = handle t

let finish t =
  if not t.finished then begin
    (* Trailing events after the last boundary (end-of-run leakage)
       live in one final, possibly short window. *)
    if (not (window_is_empty t)) || t.closed = [] then close_window t;
    t.finished <- true
  end;
  List.rev t.closed

let sum_counters (windows : window list) =
  let acc = Array.make Counter.count 0 in
  List.iter
    (fun (w : window) ->
      Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) w.counters)
    windows;
  acc

