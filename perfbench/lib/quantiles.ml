(* Order statistics for the benchmark's timing metrics.

   Percentiles use the nearest-rank rule on the sorted sample: the
   [p]-percentile of [n] samples is the sample at 1-based rank
   [ceil (p * n)].  The samples "beyond" it are the ones ranked after
   it.  A tail is only reported at a level that leaves at least
   [min_beyond] samples beyond it, so a single outlier can never be the
   reported tail. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank ~n p =
  let r = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantiles.percentile: empty sample";
  a.(rank ~n p - 1)

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 0.5

(* The median over distinct keys of each key's mean: a workload that
   repeats the same ops pass after pass reports its typical op, not
   whichever repeat noise happened to rank in the middle.  With few
   distinct ops whose times are far apart, a pooled median jumps
   between them from run to run; a per-op mean moves only with the op. *)
let median_of_means samples =
  let sums = Hashtbl.create 64 in
  List.iter
    (fun (k, v) ->
      let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt sums k) in
      Hashtbl.replace sums k (s +. v, n + 1))
    samples;
  median (Hashtbl.fold (fun _ (s, n) acc -> (s /. float_of_int n) :: acc) sums [])

let min_beyond = 10

(* Candidate tail levels, lowest first.  Fixed levels keep the reported
   percentile the same across runs whose sample counts differ a little. *)
let levels = [ 0.5; 0.75; 0.9; 0.95; 0.99; 0.999 ]

type tail = { level : float; value : float; samples : int; beyond : int }

(* The tail at the highest fixed level that leaves [min_beyond] samples
   beyond it in a sample of [support] (default: the sample's own size).
   A workload that guarantees a minimum sample passes that minimum, so
   a run that happens to collect more samples still reports the same
   level and two runs stay comparable. *)
let tail ?support xs =
  let a = sorted xs in
  let n = Array.length a in
  let support = match support with Some s -> min s n | None -> n in
  List.fold_left
    (fun best level ->
      if n > 0 && support - rank ~n:support level >= min_beyond then
        let r = rank ~n level in
        Some { level; value = a.(r - 1); samples = n; beyond = n - r }
      else best)
    None levels

let level_name level =
  let pct = level *. 100.0 in
  if Float.is_integer pct then Printf.sprintf "p%.0f" pct
  else Printf.sprintf "p%g" pct
