type fetch_kind = Same_line | Way_placed | Full | Link_follow

type hint_outcome = Correct_wp | Correct_normal | Missed_saving | Reaccess

type event =
  | Fetch of fetch_kind
  | Icache_access of { hit : bool }
  | L0_access of { hit : bool }
  | Tag_comparisons of int
  | Tag_ways of int
  | Data_reads of int
  | Tag_search of { ways : int }
  | Line_fill of { evicted : bool }
  | Hint of hint_outcome
  | Way_prediction of { correct : bool }
  | Link_write
  | Links_invalidated of int
  | Drowsy_wake
  | Itlb_miss
  | Dtlb_miss
  | Dcache_access of { miss : bool }
  | Leakage of { pj : float }
  | Retire of { cycles : int; instrs : int }
  | Resize of { area_bytes : int }
  | Flush
  | Context_switch of { next : int }

type t = event -> unit

let ignore_event (_ : event) = ()
let null : t = ignore_event

let fetch_kind_name = function
  | Same_line -> "same_line"
  | Way_placed -> "way_placed"
  | Full -> "full"
  | Link_follow -> "link_follow"

let pp_event ppf = function
  | Fetch k -> Format.fprintf ppf "Fetch %s" (fetch_kind_name k)
  | Icache_access { hit } -> Format.fprintf ppf "Icache_access hit=%b" hit
  | L0_access { hit } -> Format.fprintf ppf "L0_access hit=%b" hit
  | Tag_comparisons n -> Format.fprintf ppf "Tag_comparisons %d" n
  | Tag_ways n -> Format.fprintf ppf "Tag_ways %d" n
  | Data_reads n -> Format.fprintf ppf "Data_reads %d" n
  | Tag_search { ways } -> Format.fprintf ppf "Tag_search ways=%d" ways
  | Line_fill { evicted } -> Format.fprintf ppf "Line_fill evicted=%b" evicted
  | Hint Correct_wp -> Format.pp_print_string ppf "Hint correct_wp"
  | Hint Correct_normal -> Format.pp_print_string ppf "Hint correct_normal"
  | Hint Missed_saving -> Format.pp_print_string ppf "Hint missed_saving"
  | Hint Reaccess -> Format.pp_print_string ppf "Hint reaccess"
  | Way_prediction { correct } ->
      Format.fprintf ppf "Way_prediction correct=%b" correct
  | Link_write -> Format.pp_print_string ppf "Link_write"
  | Links_invalidated n -> Format.fprintf ppf "Links_invalidated %d" n
  | Drowsy_wake -> Format.pp_print_string ppf "Drowsy_wake"
  | Itlb_miss -> Format.pp_print_string ppf "Itlb_miss"
  | Dtlb_miss -> Format.pp_print_string ppf "Dtlb_miss"
  | Dcache_access { miss } -> Format.fprintf ppf "Dcache_access miss=%b" miss
  | Leakage { pj } -> Format.fprintf ppf "Leakage %.3fpJ" pj
  | Retire { cycles; instrs } ->
      Format.fprintf ppf "Retire cycles=%d instrs=%d" cycles instrs
  | Resize { area_bytes } -> Format.fprintf ppf "Resize %dB" area_bytes
  | Flush -> Format.pp_print_string ppf "Flush"
  | Context_switch { next } -> Format.fprintf ppf "Context_switch next=%d" next
