(* In-memory spans around calls into the system's public functions.

   A span is recorded when it ends; nothing is written until the
   benchmark finishes, so tracing costs a clock read and a list cons
   per call.  Spans opened with [run] nest on the calling thread; spans
   from other threads are added whole with [record].  A layer's self
   time is its span's duration minus the time covered by its child
   spans (children of one span never overlap: they run on the same
   thread, one after the other). *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  start : float;
  stop : float;
  tid : int;
}

type t = {
  lock : Mutex.t;
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;  (** open [run] spans, innermost first *)
}

let create () = { lock = Mutex.create (); spans = []; next_id = 0; stack = [] }

let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next_id in
  t.next_id <- id + 1;
  Mutex.unlock t.lock;
  id

let add t s =
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

let record t ?(tid = 0) name ~start ~stop =
  add t { id = fresh_id t; parent = -1; name; start; stop; tid }

let run t name f =
  let id = fresh_id t in
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
      add t { id; parent; name; start; stop; tid = 0 })
    f

let spans t =
  Mutex.lock t.lock;
  let l = t.spans in
  Mutex.unlock t.lock;
  List.sort (fun a b -> Float.compare a.start b.start) l

type layer = { self_s : float; total_s : float; calls : int }

(* Per span name: summed self time, summed duration and call count. *)
let layers t =
  let all = spans t in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    all;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let l =
        Option.value ~default:{ self_s = 0.0; total_s = 0.0; calls = 0 }
          (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name
        { self_s = l.self_s +. self; total_s = l.total_s +. dur; calls = l.calls + 1 })
    all;
  acc

let layer tbl name =
  Option.value ~default:{ self_s = 0.0; total_s = 0.0; calls = 0 }
    (Hashtbl.find_opt tbl name)

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first span), loadable in chrome://tracing or Perfetto. *)
let to_chrome t =
  let module R = Wp_sim.Report in
  let all = spans t in
  let t0 = match all with s :: _ -> s.start | [] -> 0.0 in
  let us x = R.Jfloat ((x -. t0) *. 1e6) in
  R.Jobj
    [
      ( "traceEvents",
        R.Jlist
          (List.map
             (fun s ->
               R.Jobj
                 [
                   ("name", R.Jstring s.name);
                   ("ph", R.Jstring "X");
                   ("ts", us s.start);
                   ("dur", R.Jfloat ((s.stop -. s.start) *. 1e6));
                   ("pid", R.Jint 1);
                   ("tid", R.Jint s.tid);
                   ("args", R.Jobj [ ("id", R.Jint s.id); ("parent", R.Jint s.parent) ]);
                 ])
             all) );
      ("displayTimeUnit", R.Jstring "ms");
    ]
