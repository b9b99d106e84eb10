(* Open-loop load accounting.

   Requests are sent on a schedule fixed before the phase starts, never
   in response to replies, so a stalled server keeps receiving load and
   its queue can grow.  Each request's latency is timed from when it was
   {e due}, not from when the generator managed to send it: a generator
   that falls behind (a full socket buffer, a descheduled thread) delays
   every later request, and that delay is charged to the system under
   test rather than hidden.  How late the generator ran is reported on
   its own as the lag. *)

(* Poisson arrivals: exponential gaps at [rate] per second, offsets in
   seconds from the phase start, strictly inside [0, duration). *)
let schedule ~rng ~rate ~duration =
  if rate <= 0.0 then invalid_arg "Openloop.schedule: rate must be positive";
  let rec go t acc =
    let u = Random.State.float rng 1.0 in
    let t = t -. (log (1.0 -. u) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []

type outcome = {
  due : float;  (** absolute time the request was due *)
  sent : float;  (** absolute time the generator sent it *)
  finished : float option;  (** reply time; [None] = failed or never answered *)
}

(* A failed or unanswered request misses every latency limit. *)
let latency_ms o =
  match o.finished with
  | Some f -> (f -. o.due) *. 1000.0
  | None -> Float.infinity

let lag_ms o = (o.sent -. o.due) *. 1000.0

(* Requests due by [at] and not answered by then. *)
let backlog ~at outcomes =
  Array.fold_left
    (fun n o ->
      if o.due > at then n
      else
        match o.finished with
        | Some f when f <= at -> n
        | Some _ | None -> n + 1)
    0 outcomes

type summary = {
  rate : float;
  attempted : int;
  failed : int;
  p50_ms : float;
  tail : Quantiles.tail option;
  lag_p50_ms : float;
  lag_max_ms : float;
  end_backlog : int;  (** outstanding when the last request was due *)
  backlog_limit : float;
      (** [rate * limit]: by Little's law, a stable queue whose latency
          meets the limit holds at most this many requests *)
  growing : bool;  (** [end_backlog] exceeds [backlog_limit] *)
}

(* [support] fixes the tail level as in {!Quantiles.tail}. *)
let summarize ?support ~rate ~limit_ms outcomes =
  if Array.length outcomes = 0 then invalid_arg "Openloop.summarize: no requests";
  let lats = Array.to_list (Array.map latency_ms outcomes) in
  let lags = Array.to_list (Array.map lag_ms outcomes) in
  let last_due = Array.fold_left (fun m o -> Float.max m o.due) neg_infinity outcomes in
  let end_backlog = backlog ~at:last_due outcomes in
  let backlog_limit = rate *. limit_ms /. 1000.0 in
  {
    rate;
    attempted = Array.length outcomes;
    failed =
      Array.fold_left (fun n o -> if o.finished = None then n + 1 else n) 0 outcomes;
    p50_ms = Quantiles.median lats;
    tail = Quantiles.tail ?support lats;
    lag_p50_ms = Quantiles.median lags;
    lag_max_ms = List.fold_left Float.max neg_infinity lags;
    end_backlog;
    backlog_limit;
    growing = float_of_int end_backlog > backlog_limit;
  }

(* A rate is sustained when the tail meets the limit (failed requests
   count as beyond it) and the backlog is not growing.  Too few samples
   to name a tail is a miss: the rate was not shown to be sustained. *)
let sustained ~limit_ms s =
  (not s.growing)
  && match s.tail with Some t -> t.Quantiles.value <= limit_ms | None -> false

(* The rate ladder: [base], [base * factor], ... up to [max_steps]
   rungs.  Climbing stops at the first rung that is not sustained; the
   result is the highest sustained rate (0 when even [base] is not)
   and every rung tried, in order. *)
let ladder ~base ~factor ~max_steps ~step =
  let rec climb i rate best tried =
    if i >= max_steps then (best, List.rev tried)
    else
      let ok = step rate in
      let tried = (rate, ok) :: tried in
      if ok then climb (i + 1) (rate *. factor) rate tried
      else (best, List.rev tried)
  in
  climb 0 base 0.0 []
