(* The benchmark's own statistics: the tail rule, open-loop latency
   accounting, the rate ladder's stop rule and host-speed
   normalisation. *)

open Perfbench_lib
module Q = Quantiles
module Ol = Openloop

let floats = Alcotest.(list (float 1e-9))
let ms n = List.init n (fun i -> float_of_int (i + 1))

let check_tail name ?support xs ~level ~value ~samples ~beyond =
  match Q.tail ?support xs with
  | None -> Alcotest.failf "%s: no tail" name
  | Some t ->
      Alcotest.(check (float 1e-9)) (name ^ " level") level t.Q.level;
      Alcotest.(check (float 1e-9)) (name ^ " value") value t.Q.value;
      Alcotest.(check int) (name ^ " samples") samples t.Q.samples;
      Alcotest.(check int) (name ^ " beyond") beyond t.Q.beyond

let test_tail_rule () =
  (* 100 samples: p90 leaves exactly 10 beyond, p95 only 5 *)
  check_tail "100" (ms 100) ~level:0.9 ~value:90.0 ~samples:100 ~beyond:10;
  (* 99 samples: p90 is rank 90 (ceil 89.1), leaving 9 -> p75 *)
  check_tail "99" (ms 99) ~level:0.75 ~value:75.0 ~samples:99 ~beyond:24;
  (* 1000 samples reach p99 *)
  check_tail "1000" (ms 1000) ~level:0.99 ~value:990.0 ~samples:1000 ~beyond:10;
  (* order of the input does not matter *)
  check_tail "reversed" (List.rev (ms 200)) ~level:0.95 ~value:190.0 ~samples:200 ~beyond:10;
  (* fewer than 20 samples support no level at all *)
  Alcotest.(check bool) "19 samples: no tail" true (Q.tail (ms 19) = None);
  Alcotest.(check bool) "20 samples: p50" true
    (match Q.tail (ms 20) with Some t -> t.Q.level = 0.5 | None -> false)

let test_tail_support () =
  (* 300 samples would reach p95, but a guaranteed minimum of 150 only
     supports p90: the level stays where the minimum puts it *)
  check_tail "support 150" ~support:150 (ms 300) ~level:0.9 ~value:270.0 ~samples:300
    ~beyond:30;
  (* a support above the sample size is capped at the sample size *)
  check_tail "support capped" ~support:5000 (ms 100) ~level:0.9 ~value:90.0 ~samples:100
    ~beyond:10

let test_percentiles () =
  Alcotest.(check (float 1e-9)) "median odd" 3.0 (Q.median [ 5.0; 1.0; 3.0; 4.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "median even is the lower middle" 2.0
    (Q.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.(check string) "level names" "p99.9" (Q.level_name 0.999);
  Alcotest.(check string) "level names" "p90" (Q.level_name 0.9)

let test_median_of_means () =
  (* three ops, each repeated; noise reorders the repeats but each op's
     mean stays put, so the median op is b *)
  let samples =
    [ ("a", 10.0); ("b", 50.0); ("c", 90.0); ("a", 12.0); ("b", 70.0); ("c", 88.0); ("b", 60.0) ]
  in
  Alcotest.(check (float 1e-9)) "median over ops of their means" 60.0 (Q.median_of_means samples);
  Alcotest.(check (float 1e-9)) "one op" 3.0 (Q.median_of_means [ ("x", 2.0); ("x", 4.0) ])

let outcome ?finished ~due ~sent () = { Ol.due; sent; finished }

let test_latency_from_due () =
  (* due at 10.0, the generator ran 30 ms late, reply at 10.050: the
     request waited 50 ms, not the 20 ms since it was sent *)
  let o = outcome ~due:10.0 ~sent:10.030 ~finished:10.050 () in
  Alcotest.(check (float 1e-6)) "latency from due" 50.0 (Ol.latency_ms o);
  Alcotest.(check (float 1e-6)) "lag" 30.0 (Ol.lag_ms o);
  Alcotest.(check bool) "a failed request misses every limit" true
    (Ol.latency_ms (outcome ~due:1.0 ~sent:1.0 ()) = Float.infinity)

let test_generator_stall () =
  (* the generator stalls for 100 ms: requests due during the stall are
     sent late and answered 1 ms after sending, yet their latency
     counts the stall *)
  let outcomes =
    Array.init 40 (fun i ->
        let due = float_of_int i *. 0.01 in
        let sent = if due < 0.1 then 0.1 else due in
        outcome ~due ~sent ~finished:(sent +. 0.001) ())
  in
  let s = Ol.summarize ~rate:100.0 ~limit_ms:250.0 outcomes in
  Alcotest.(check (float 1e-6)) "worst lag is the stall" 100.0 s.Ol.lag_max_ms;
  Alcotest.(check int) "attempted" 40 s.Ol.attempted;
  Alcotest.(check int) "failed" 0 s.Ol.failed;
  (* the request due at 0 waited the whole stall plus service *)
  let worst = Array.fold_left (fun m o -> Float.max m (Ol.latency_ms o)) 0.0 outcomes in
  Alcotest.(check (float 1e-6)) "stall charged to latency" 101.0 worst

let test_schedule () =
  let rng = Random.State.make [| 42 |] in
  let a = Ol.schedule ~rng ~rate:200.0 ~duration:10.0 in
  let n = Array.length a in
  Alcotest.(check bool) "about rate x duration arrivals" true (n > 1800 && n < 2200);
  Alcotest.(check bool) "ascending and inside the phase" true
    (let ok = ref (a.(0) >= 0.0 && a.(n - 1) < 10.0) in
     for i = 1 to n - 1 do
       if a.(i) <= a.(i - 1) then ok := false
     done;
     !ok);
  let b = Ol.schedule ~rng:(Random.State.make [| 42 |]) ~rate:200.0 ~duration:10.0 in
  Alcotest.(check floats) "same seed, same schedule" (Array.to_list a) (Array.to_list b)

let test_backlog () =
  let outcomes =
    [|
      outcome ~due:0.0 ~sent:0.0 ~finished:0.5 ();
      outcome ~due:0.1 ~sent:0.1 ~finished:0.15 ();
      outcome ~due:0.2 ~sent:0.2 ();
      outcome ~due:0.9 ~sent:0.9 ~finished:1.0 ();
    |]
  in
  Alcotest.(check int) "at 0.3: first and failed third outstanding" 2 (Ol.backlog ~at:0.3 outcomes);
  Alcotest.(check int) "at 0.95" 2 (Ol.backlog ~at:0.95 outcomes);
  Alcotest.(check int) "at 0.05: only the first is due" 1 (Ol.backlog ~at:0.05 outcomes)

(* A phase at [rate] req/s for 2 s where every request takes [service]
   seconds, optionally failing every [fail_every]-th request. *)
let synthetic ~rate ~service ?(fail_every = 0) () =
  Array.init (int_of_float (rate *. 2.0)) (fun i ->
      let due = float_of_int i /. rate in
      let finished = if fail_every > 0 && i mod fail_every = 0 then None else Some (due +. service) in
      { Ol.due; sent = due; finished })

(* A single server that handles [capacity] req/s, FIFO: above capacity
   the queue grows for the whole phase. *)
let queueing ~rate ~capacity =
  let free = ref 0.0 in
  Array.init (int_of_float (rate *. 2.0)) (fun i ->
      let due = float_of_int i /. rate in
      let start = Float.max due !free in
      free := start +. (1.0 /. capacity);
      { Ol.due; sent = due; finished = Some !free })

let test_sustained () =
  let verdict ~rate outcomes = Ol.sustained ~limit_ms:250.0 (Ol.summarize ~rate ~limit_ms:250.0 outcomes) in
  Alcotest.(check bool) "fast service is sustained" true
    (verdict ~rate:100.0 (synthetic ~rate:100.0 ~service:0.01 ()));
  Alcotest.(check bool) "a tail beyond the limit is not" false
    (verdict ~rate:100.0 (synthetic ~rate:100.0 ~service:0.3 ()));
  (* 5% failures put failed requests beyond the limit at the p95 level
     and above; the reported tail level (p95 for 200 samples) is then
     infinite *)
  Alcotest.(check bool) "failed requests count as over the limit" false
    (verdict ~rate:100.0 (synthetic ~rate:100.0 ~service:0.01 ~fail_every:10 ()));
  (* below capacity the queue stays short *)
  Alcotest.(check bool) "under capacity" true (verdict ~rate:100.0 (queueing ~rate:100.0 ~capacity:200.0));
  (* 25% over capacity: the backlog grows without bound *)
  let over = Ol.summarize ~rate:250.0 ~limit_ms:250.0 (queueing ~rate:250.0 ~capacity:200.0) in
  Alcotest.(check bool) "growing backlog detected" true over.Ol.growing;
  Alcotest.(check bool) "over capacity is not sustained" false (Ol.sustained ~limit_ms:250.0 over)

let test_ladder () =
  let best, rungs = Ol.ladder ~base:100.0 ~factor:1.25 ~max_steps:20 ~step:(fun rate -> rate < 300.0) in
  (* 100, 125, 156.25, 195.3125, 244.140625 pass; 305.17578125 fails *)
  Alcotest.(check (float 1e-9)) "highest sustained rung" 244.140625 best;
  Alcotest.(check int) "stops at the first failing rung" 6 (List.length rungs);
  Alcotest.(check (list (pair (float 1e-9) bool))) "rungs in order"
    [ (100.0, true); (125.0, true); (156.25, true); (195.3125, true); (244.140625, true);
      (305.17578125, false) ]
    rungs;
  let best, rungs = Ol.ladder ~base:100.0 ~factor:1.25 ~max_steps:20 ~step:(fun _ -> false) in
  Alcotest.(check (float 1e-9)) "base fails: 0" 0.0 best;
  Alcotest.(check int) "one rung tried" 1 (List.length rungs);
  let best, rungs = Ol.ladder ~base:100.0 ~factor:1.25 ~max_steps:3 ~step:(fun _ -> true) in
  Alcotest.(check (float 1e-9)) "capped by max_steps" 156.25 best;
  Alcotest.(check int) "three rungs" 3 (List.length rungs)

let test_ladder_with_queueing () =
  (* the ladder over a simulated 500 req/s server: 381.5 passes, 476.8
     passes, 596 builds a queue and stops the climb *)
  let step rate =
    Ol.sustained ~limit_ms:250.0
      (Ol.summarize ~rate ~limit_ms:250.0 (queueing ~rate ~capacity:500.0))
  in
  let best, _ = Ol.ladder ~base:100.0 ~factor:1.25 ~max_steps:20 ~step in
  Alcotest.(check (float 1e-6)) "max rate" 476.837158203125 best

let test_hostspeed () =
  let h = Hostspeed.create () in
  Alcotest.(check (float 1e-9)) "no samples: unscaled" 1.0 (Hostspeed.factor h);
  (* a run on a host twice as slow as nominal, then at nominal *)
  for _ = 1 to 10 do
    Hostspeed.add h (2.0 *. Hostspeed.nominal_s)
  done;
  Alcotest.(check (float 1e-9)) "slow host shrinks durations" (0.5 ** Hostspeed.exponent)
    (Hostspeed.factor h);
  for _ = 1 to 10 do
    Hostspeed.add h Hostspeed.nominal_s
  done;
  Alcotest.(check (float 1e-9)) "the run's mean sets the factor"
    ((1.0 /. 1.5) ** Hostspeed.exponent) (Hostspeed.factor h);
  Alcotest.(check (float 1e-6)) "mean kernel time" (1000.0 *. 1.5 *. Hostspeed.nominal_s)
    (Hostspeed.mean_ms h)

let () =
  Alcotest.run "perfbench"
    [
      ( "quantiles",
        [
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "tail support" `Quick test_tail_support;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "median of per-op means" `Quick test_median_of_means;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "latency from due time" `Quick test_latency_from_due;
          Alcotest.test_case "generator stall" `Quick test_generator_stall;
          Alcotest.test_case "poisson schedule" `Quick test_schedule;
          Alcotest.test_case "backlog" `Quick test_backlog;
          Alcotest.test_case "sustained rule" `Quick test_sustained;
          Alcotest.test_case "ladder stop rule" `Quick test_ladder;
          Alcotest.test_case "ladder over a queue" `Quick test_ladder_with_queueing;
        ] );
      ("hostspeed", [ Alcotest.test_case "normalisation" `Quick test_hostspeed ]);
    ]
