module Pool = Wp_sim.Sweep.Pool
module Runner = Wp_sim.Runner
module Simulator = Wp_sim.Simulator
module Stats = Wp_sim.Stats
module Mp = Wp_mp.Machine
module Mix = Wp_mp.Mix
module P = Protocol

let ( let* ) = Result.bind

(* A write-once cell with both blocking and callback consumption.
   Completions arrive on executor domains; connection writers learn of
   them through [on_ready] callbacks that enqueue the response — no
   thread parks per pending request. *)
module Future = struct
  type 'a t = {
    lock : Mutex.t;
    cond : Condition.t;
    mutable value : 'a option;
    mutable waiters : ('a -> unit) list;
  }

  let create () =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      value = None;
      waiters = [];
    }

  let fulfill t v =
    Mutex.lock t.lock;
    let waiters =
      match t.value with
      | Some _ ->
          Mutex.unlock t.lock;
          invalid_arg "Daemon.Future: fulfilled twice"
      | None ->
          t.value <- Some v;
          let ws = t.waiters in
          t.waiters <- [];
          Condition.broadcast t.cond;
          Mutex.unlock t.lock;
          ws
    in
    (* callbacks run outside the lock; one raising waiter must not
       starve the others *)
    List.iter (fun k -> try k v with _ -> ()) (List.rev waiters)

  let on_ready t k =
    Mutex.lock t.lock;
    match t.value with
    | Some v ->
        Mutex.unlock t.lock;
        k v
    | None ->
        t.waiters <- k :: t.waiters;
        Mutex.unlock t.lock
end

(* A grow-only string map, read without a lock: writers swap in an
   extended map by compare-and-set. *)
module Published = struct
  module M = Map.Make (String)

  type 'a t = 'a M.t Atomic.t

  let create () = Atomic.make M.empty
  let find t k = M.find_opt k (Atomic.get t)

  let rec add t k v =
    let m = Atomic.get t in
    if not (Atomic.compare_and_set t m (M.add k v m)) then add t k v
end

(* The computations of one value type in flight, by content address. *)
type 'a inflight = {
  lock : Mutex.t;
  table : (string, ('a, string) result Future.t) Hashtbl.t;
}

(* Request lines are read straight off the descriptor, so that a line
   longer than [max_line_bytes] is never held whole. *)
type line_reader = {
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

type conn = {
  fd : Unix.file_descr;
  reader : line_reader;
  oc : out_channel;
  out_lock : Mutex.t;
  out_cond : Condition.t;
  outbox : string Queue.t;
  mutable outstanding : int;  (** dispatched, response not yet enqueued *)
  mutable reader_done : bool;
  mutable dead : bool;  (** a write failed; discard further output *)
}

type t = {
  listen_fd : Unix.file_descr;
  actual_endpoint : P.endpoint;
  unix_path : string option;  (** to unlink after the run *)
  exec : Pool.Executor.t;
  store : Store.t;
  engine : Wp_sim.Sweep.t;  (** memoised [Runner.prepare] only *)
  stats_inflight : Stats.t inflight;  (** sim, grid cells and mp *)
  advise_inflight : P.advise_result inflight;
  mp_meta : (int * int) Published.t;
      (** key -> (switches, kernel_runs): machine-level facts the store
          does not persist.  In-memory only — a disk hit after a
          restart reports them as [-1]. *)
  advise_cache : P.advise_result Published.t;
      (** advisor summaries are not [Stats.t], so they bypass the store
          and live in this in-memory map *)
  stop_pipe_r : Unix.file_descr;
  stop_pipe_w : Unix.file_descr;
  state_lock : Mutex.t;
  mutable stopping : bool;
  mutable conns : (Thread.t * Thread.t) list;
  started : float;
  requests : int Atomic.t;
  sim_requests : int Atomic.t;
  computations : int Atomic.t;
  hits_memory : int Atomic.t;
  hits_disk : int Atomic.t;
  coalesced_count : int Atomic.t;
  errors : int Atomic.t;
}

let computations t = Atomic.get t.computations
let store t = t.store
let endpoint t = t.actual_endpoint

let new_inflight () = { lock = Mutex.create (); table = Hashtbl.create 64 }

let create ?workers ?store_dir ~endpoint () =
  let* addr = P.sockaddr_of_endpoint endpoint in
  let* store = Store.create ?dir:store_dir () in
  let domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | Unix.ADDR_INET _ -> Unix.PF_INET
  in
  let unix_path =
    match endpoint with P.Unix_socket p -> Some p | P.Tcp _ -> None
  in
  (* a stale socket file from a previous daemon would make bind fail *)
  (match unix_path with
  | Some p when Sys.file_exists p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | _ -> ());
  match
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Unix.ADDR_UNIX _ -> ());
    (try
       Unix.bind fd addr;
       Unix.listen fd 128
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    let actual_endpoint =
      match (endpoint, Unix.getsockname fd) with
      | P.Tcp (host, _), Unix.ADDR_INET (_, port) -> P.Tcp (host, port)
      | ep, _ -> ep
    in
    (fd, actual_endpoint)
  with
  | exception Unix.Unix_error (e, fn, arg) ->
      Error
        (Printf.sprintf "cannot listen on %s: %s(%s): %s"
           (P.endpoint_to_string endpoint)
           fn arg (Unix.error_message e))
  | listen_fd, actual_endpoint ->
      let stop_pipe_r, stop_pipe_w = Unix.pipe () in
      Ok
        {
          listen_fd;
          actual_endpoint;
          unix_path;
          exec = Pool.Executor.create ?workers ();
          store;
          engine = Wp_sim.Sweep.create ~workers:1 ();
          stats_inflight = new_inflight ();
          advise_inflight = new_inflight ();
          mp_meta = Published.create ();
          advise_cache = Published.create ();
          stop_pipe_r;
          stop_pipe_w;
          state_lock = Mutex.create ();
          stopping = false;
          conns = [];
          started = Unix.gettimeofday ();
          requests = Atomic.make 0;
          sim_requests = Atomic.make 0;
          computations = Atomic.make 0;
          hits_memory = Atomic.make 0;
          hits_disk = Atomic.make 0;
          coalesced_count = Atomic.make 0;
          errors = Atomic.make 0;
        }

let stop t =
  Mutex.lock t.state_lock;
  let first = not t.stopping in
  t.stopping <- true;
  Mutex.unlock t.state_lock;
  if first then
    (* wake the accept loop's select *)
    try ignore (Unix.write t.stop_pipe_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let inflight_length fl =
  Mutex.lock fl.lock;
  let n = Hashtbl.length fl.table in
  Mutex.unlock fl.lock;
  n

let server_stats t =
  {
    P.requests = Atomic.get t.requests;
    sim_requests = Atomic.get t.sim_requests;
    computations = Atomic.get t.computations;
    hits_memory = Atomic.get t.hits_memory;
    hits_disk = Atomic.get t.hits_disk;
    coalesced = Atomic.get t.coalesced_count;
    errors = Atomic.get t.errors;
    store_entries = Store.memory_entries t.store;
    inflight = inflight_length t.stats_inflight + inflight_length t.advise_inflight;
    workers = Pool.Executor.workers t.exec;
    uptime_s = Unix.gettimeofday () -. t.started;
  }

(* --- per-connection output ------------------------------------------ *)

let enqueue_locked conn resp =
  Queue.push (P.response_to_line resp) conn.outbox;
  Condition.signal conn.out_cond

(* Immediate (synchronous) reply to a request handled inline. *)
let reply conn resp =
  Mutex.lock conn.out_lock;
  enqueue_locked conn resp;
  Mutex.unlock conn.out_lock

(* Completion of a previously dispatched request. *)
let complete conn resp =
  Mutex.lock conn.out_lock;
  conn.outstanding <- conn.outstanding - 1;
  enqueue_locked conn resp;
  Mutex.unlock conn.out_lock

let dispatch conn =
  Mutex.lock conn.out_lock;
  conn.outstanding <- conn.outstanding + 1;
  Mutex.unlock conn.out_lock

let reply_error t conn id msg =
  Atomic.incr t.errors;
  reply conn { P.id; reply = P.Error_reply msg }

let complete_error t conn id msg =
  Atomic.incr t.errors;
  complete conn { P.id; reply = P.Error_reply msg }

(* Complete a dispatched request with a rendered result or its error. *)
let complete_with t conn id render = function
  | Ok v -> complete conn { P.id; reply = render v }
  | Error msg -> complete_error t conn id msg

(* --- the memo path ----------------------------------------------------- *)

(* Resolve one content address through the memoisation stack every
   request kind shares — published result, in-flight coalescing,
   executor — calling [k] exactly once with the source and outcome:
   synchronously on a hit, from an executor domain otherwise.

   [find] looks up what is already published.  [compute] runs,
   verifies and publishes; returning (with [Ok] or [Error]) counts as
   one computation, raising becomes an [Error] and does not.  Its
   publish happens strictly before the in-flight entry is dropped, so
   a request that misses the in-flight table afterwards is guaranteed
   to hit [find] — the computation counter can never exceed the number
   of distinct keys (plus deliberate [no_cache] runs).  A [no_cache]
   run skips both the read and coalescing.  If the executor is
   draining (shutdown has begun) the request was still accepted, so
   the task runs inline on the reader thread rather than be lost. *)
let resolve t fl ~key ~no_cache ~find ~compute k =
  let run ~registered fut =
    Future.on_ready fut (k P.Computed);
    let task () =
      let outcome =
        match compute () with
        | outcome ->
            Atomic.incr t.computations;
            outcome
        | exception exn ->
            Error (Printf.sprintf "computation failed: %s" (Printexc.to_string exn))
      in
      if registered then begin
        Mutex.lock fl.lock;
        Hashtbl.remove fl.table key;
        Mutex.unlock fl.lock
      end;
      Future.fulfill fut outcome
    in
    if not (Pool.Executor.submit t.exec task) then task ()
  in
  let hit (v, where) =
    match where with
    | `Memory ->
        Atomic.incr t.hits_memory;
        k P.Memory (Ok v)
    | `Disk ->
        Atomic.incr t.hits_disk;
        k P.Disk (Ok v)
  in
  if no_cache then run ~registered:false (Future.create ())
  else
    match find key with
    | Some h -> hit h
    | None -> (
        Mutex.lock fl.lock;
        match Hashtbl.find_opt fl.table key with
        | Some fut ->
            Mutex.unlock fl.lock;
            Atomic.incr t.coalesced_count;
            Future.on_ready fut (k P.Coalesced)
        | None -> (
            (* recheck under the in-flight lock: a computation that just
               completed publishes before deregistering, so this order
               can't miss both tables and recompute *)
            match find key with
            | Some h ->
                Mutex.unlock fl.lock;
                hit h
            | None ->
                let fut = Future.create () in
                Hashtbl.replace fl.table key fut;
                Mutex.unlock fl.lock;
                run ~registered:true fut))

(* --- request handling ----------------------------------------------- *)

let prepared t benchmark =
  match Wp_sim.Sweep.prepared t.engine benchmark with
  | prep -> Ok prep
  | exception Not_found -> Error (Printf.sprintf "unknown benchmark %S" benchmark)
  | exception exn ->
      Error (Printf.sprintf "prepare failed: %s" (Printexc.to_string exn))

let verify_against_reference prep config stats =
  let reference =
    Simulator.run_compiled ~reference_only:true ~config
      ~trace:prep.Runner.trace_large
      (Runner.compiled_for prep config)
  in
  if Stats.equal stats reference then Ok ()
  else
    Error
      (Format.asprintf
         "verification failed: served result diverges from the reference \
          loop:@ %a"
         Stats.pp_diff (stats, reference))

(* One (prepared, config) cell — a [Sim] request or a cell of a
   [Grid].  [k] also receives the cell's store key. *)
let resolve_cell t ~prep ~config ~no_cache ~verify k =
  let key =
    Store.key ~program:prep.Runner.program
      ~order:(Wp_layout.Binary_layout.order (Runner.layout_for prep config))
      ~config
  in
  resolve t t.stats_inflight ~key ~no_cache ~find:(Store.find t.store)
    ~compute:(fun () ->
      (* every computation shares the sweep engine's snapshot cache:
         converged loop iterations recorded for one request
         fast-forward every later request whose fingerprints coincide —
         most visibly the cells of a grid, which differ only in
         configuration.  The result is bit-identical either way (the
         cache key pins the compiled trace and the full config; the
         differ enforces the equality). *)
      let stats =
        Runner.run_scheme
          ~snapshot_cache:(Wp_sim.Sweep.snapshot_cache t.engine)
          prep config
      in
      let* () = if verify then verify_against_reference prep config stats else Ok () in
      Store.put t.store key stats;
      Ok stats)
    (k key)

let handle_sim t conn id (sr : P.sim_request) =
  Atomic.incr t.sim_requests;
  match
    let* config = P.config_of_sim sr in
    let* prep = prepared t sr.P.benchmark in
    Ok (config, prep)
  with
  | Error msg -> reply_error t conn id msg
  | Ok (config, prep) ->
      dispatch conn;
      resolve_cell t ~prep ~config ~no_cache:sr.P.no_cache ~verify:sr.P.verify
        (fun key source ->
          complete_with t conn id (fun stats ->
              P.Sim_reply (P.sim_result_of_stats ~key ~source stats)))

(* --- grid requests ---------------------------------------------------- *)

(* One grid = one dispatched slot: cells stream through [reply] as
   their computations (or store hits) land, in completion order; the
   terminal [Grid_done] goes through [complete] and is guaranteed to
   be enqueued after every cell (each cell's enqueue happens before
   its countdown decrement, which happens before the final decrement).
   Cell failures are per-cell — the rest of the grid still runs. *)
let handle_grid t conn id (gr : P.grid_request) =
  Atomic.incr t.sim_requests;
  match P.grid_cells gr with
  | [] -> reply_error t conn id "empty grid"
  | cells ->
      dispatch conn;
      let n = List.length cells in
      let remaining = Atomic.make n in
      let computed = Atomic.make 0 in
      let g_memory = Atomic.make 0 in
      let g_disk = Atomic.make 0 in
      let g_coalesced = Atomic.make 0 in
      let g_errors = Atomic.make 0 in
      let finish_cell () =
        if Atomic.fetch_and_add remaining (-1) = 1 then
          complete conn
            {
              P.id;
              reply =
                P.Grid_done
                  {
                    P.gs_cells = n;
                    gs_computed = Atomic.get computed;
                    gs_hits_memory = Atomic.get g_memory;
                    gs_hits_disk = Atomic.get g_disk;
                    gs_coalesced = Atomic.get g_coalesced;
                    gs_errors = Atomic.get g_errors;
                  };
            }
      in
      let emit idx bench scheme size_kb ways outcome =
        reply conn
          {
            P.id;
            reply =
              P.Grid_cell_reply
                {
                  P.gc_index = idx;
                  gc_benchmark = bench;
                  gc_scheme = scheme;
                  gc_size_kb = size_kb;
                  gc_ways = ways;
                  gc_outcome = outcome;
                };
          };
        finish_cell ()
      in
      let cell_error idx bench scheme size_kb ways msg =
        Atomic.incr g_errors;
        Atomic.incr t.errors;
        emit idx bench scheme size_kb ways (Error msg)
      in
      List.iteri
        (fun idx (bench, scheme, size_kb, ways) ->
          match
            let* config =
              P.config_of_geometry ~scheme ~size_kb ~ways
                ~line_bytes:gr.P.g_line_bytes
            in
            let* prep = prepared t bench in
            Ok (config, prep)
          with
          | Error msg -> cell_error idx bench scheme size_kb ways msg
          | Ok (config, prep) ->
              resolve_cell t ~prep ~config ~no_cache:gr.P.g_no_cache
                ~verify:false (fun key source outcome ->
                  match outcome with
                  | Ok stats ->
                      (match source with
                      | P.Computed -> Atomic.incr computed
                      | P.Memory -> Atomic.incr g_memory
                      | P.Disk -> Atomic.incr g_disk
                      | P.Coalesced -> Atomic.incr g_coalesced);
                      emit idx bench scheme size_kb ways
                        (Ok (P.sim_result_of_stats ~key ~source stats))
                  | Error msg -> cell_error idx bench scheme size_kb ways msg))
        cells

(* --- multiprogrammed requests ---------------------------------------- *)

let options_of_mp (mr : P.mp_request) =
  {
    Mp.quantum_cycles = mr.P.mp_quantum;
    kernel = mr.P.mp_kernel;
    btb_policy = (if mr.P.mp_btb_flush then Mp.Btb_flush else Mp.Btb_shared);
    drowsy_policy =
      (if mr.P.mp_drowsy_flush then Mp.Drowsy_flush else Mp.Drowsy_shared);
    sched = (if mr.P.mp_priority then Mp.Priority else Mp.Round_robin);
  }

(* Content address of a multiprogrammed run: the fully resolved mix
   (specs, placement flags, priorities), the machine configuration and
   the scheduler options are all the run depends on.  The "mp" tag
   keeps the digest disjoint from single-process [Store.key]s, so both
   share the store (and persist) and the in-flight table. *)
let mp_key ~mix ~(config : Wp_sim.Config.t) ~(options : Mp.options) =
  Digest.to_hex
    (Digest.string (Marshal.to_string ("mp", mix, config, options) []))

let handle_mp t conn id (mr : P.mp_request) =
  Atomic.incr t.sim_requests;
  match
    let* config = P.config_of_mp mr in
    let* mix = Mix.parse ~mix:mr.P.mp_mix ~coverage:mr.P.mp_coverage in
    Ok (config, mix)
  with
  | Error msg -> reply_error t conn id msg
  | Ok (config, mix) ->
      let options = options_of_mp mr in
      let key = mp_key ~mix ~config ~options in
      dispatch conn;
      resolve t t.stats_inflight ~key ~no_cache:mr.P.mp_no_cache
        ~find:(Store.find t.store)
        ~compute:(fun () ->
          let r = Mp.run ~config ~options mix in
          let* () =
            if not mr.P.mp_verify then Ok ()
            else
              match Mp.verify_reference ~config ~options mix r with
              | Ok () -> Ok ()
              | Error msg -> Error ("verification failed: " ^ msg)
              | exception exn ->
                  Error
                    (Printf.sprintf "verification failed: reference run raised: %s"
                       (Printexc.to_string exn))
          in
          Published.add t.mp_meta key (r.Mp.switches, r.Mp.kernel_runs);
          Store.put t.store key r.Mp.aggregate;
          Ok r.Mp.aggregate)
        (fun source ->
          complete_with t conn id (fun stats ->
              let switches, kernel_runs =
                Option.value (Published.find t.mp_meta key) ~default:(-1, -1)
              in
              P.Mp_reply
                (P.mp_result_of_stats ~key ~source ~processes:(List.length mix)
                   ~switches ~kernel_runs stats)))

(* --- advisor requests ------------------------------------------------ *)

(* Content address of an advisor run: benchmark and the full geometry /
   area / page tuple the analysis depends on.  "advise-" keeps the
   namespace disjoint from sim and mp keys; summaries live in the
   advise-private [advise_cache] (the store persists only
   [Stats.t]). *)
let advise_key (ar : P.advise_request) =
  "advise-"
  ^ Digest.to_hex
      (Digest.string
         (Marshal.to_string
            ( ar.P.ad_benchmark,
              ar.P.ad_size_kb,
              ar.P.ad_ways,
              ar.P.ad_line_bytes,
              ar.P.ad_area_kb,
              ar.P.ad_page_bytes )
            []))

let handle_advise t conn id (ar : P.advise_request) =
  Atomic.incr t.sim_requests;
  match
    let* geometry =
      match
        Wp_cache.Geometry.make
          ~size_bytes:(ar.P.ad_size_kb * 1024)
          ~assoc:ar.P.ad_ways ~line_bytes:ar.P.ad_line_bytes
      with
      | g -> Ok g
      | exception Invalid_argument msg -> Error msg
    in
    let* prep = prepared t ar.P.ad_benchmark in
    Ok (geometry, prep)
  with
  | Error msg -> reply_error t conn id msg
  | Ok (geometry, prep) ->
      let key = advise_key ar in
      dispatch conn;
      resolve t t.advise_inflight ~key ~no_cache:ar.P.ad_no_cache
        ~find:(fun key ->
          Option.map (fun r -> (r, `Memory)) (Published.find t.advise_cache key))
        ~compute:(fun () ->
          let report =
            Wp_advise.Advisor.analyze ~benchmark:ar.P.ad_benchmark
              ~graph:prep.Runner.program.Wp_workloads.Codegen.graph
              ~profile:prep.Runner.profile_small ~trace:prep.Runner.trace_large
              ~layout:prep.Runner.placed_layout ~geometry
              ~page_bytes:ar.P.ad_page_bytes
              ~area_bytes:(ar.P.ad_area_kb * 1024)
              ~energy:
                (Wp_sim.Config.xscale Wp_sim.Config.Baseline).Wp_sim.Config.energy
              ()
          in
          let r = P.advise_result_of_report ~key ~source:P.Computed report in
          Published.add t.advise_cache key r;
          Ok r)
        (fun source ->
          complete_with t conn id (fun r ->
              P.Advise_reply { r with P.adr_source = source }))

let handle_line t conn line =
  Atomic.incr t.requests;
  match P.request_of_line line with
  | Error msg -> reply_error t conn (P.id_of_line line) msg
  | Ok { P.id; payload } -> (
      match payload with
      | P.Ping -> reply conn { P.id; reply = P.Pong }
      | P.Server_stats ->
          reply conn { P.id; reply = P.Stats_reply (server_stats t) }
      | P.Shutdown ->
          reply conn { P.id; reply = P.Shutting_down };
          stop t
      | P.Sim sr -> handle_sim t conn id sr
      | P.Mp mr -> handle_mp t conn id mr
      | P.Advise ar -> handle_advise t conn id ar
      | P.Grid gr -> handle_grid t conn id gr)

(* --- connection threads --------------------------------------------- *)

let max_line_bytes = 1 lsl 20

(* The next request line: [`Line] without its newline, [`Oversize]
   for a line longer than [max_line_bytes] (its bytes are dropped as
   they arrive, up to and including the next newline), or [`Eof] on
   end of input or a read error.  A final unterminated line still
   counts, as with [input_line]. *)
let read_line fd r =
  let rec go ~oversize =
    if r.pos = r.len then
      match Unix.read fd r.buf 0 (Bytes.length r.buf) with
      | 0 -> finish ~oversize ~at_eof:true
      | n ->
          r.pos <- 0;
          r.len <- n;
          go ~oversize
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ~oversize
      | exception Unix.Unix_error _ -> finish ~oversize ~at_eof:true
    else begin
      let nl = ref r.pos in
      while !nl < r.len && Bytes.get r.buf !nl <> '\n' do incr nl done;
      let n = !nl - r.pos in
      let oversize = oversize || Buffer.length r.line + n > max_line_bytes in
      if not oversize then Buffer.add_subbytes r.line r.buf r.pos n;
      if !nl = r.len then begin
        r.pos <- r.len;
        go ~oversize
      end
      else begin
        r.pos <- !nl + 1;
        finish ~oversize ~at_eof:false
      end
    end
  and finish ~oversize ~at_eof =
    let line = Buffer.contents r.line in
    Buffer.clear r.line;
    if oversize then `Oversize
    else if at_eof && line = "" then `Eof
    else `Line line
  in
  go ~oversize:false

let reader_loop t conn () =
  let rec loop () =
    match read_line conn.fd conn.reader with
    | `Line line ->
        (* isolate the handler: a crashing request must answer that
           request, not end the connection *)
        (try handle_line t conn line
         with exn ->
           reply_error t conn 0
             (Printf.sprintf "internal error: %s" (Printexc.to_string exn)));
        loop ()
    | `Oversize ->
        Atomic.incr t.requests;
        reply_error t conn 0
          (Printf.sprintf "request line longer than %d bytes" max_line_bytes);
        loop ()
    | `Eof -> ()
  in
  loop ();
  Mutex.lock conn.out_lock;
  conn.reader_done <- true;
  Condition.broadcast conn.out_cond;
  Mutex.unlock conn.out_lock

let writer_loop conn () =
  let rec loop () =
    Mutex.lock conn.out_lock;
    while
      Queue.is_empty conn.outbox
      && not (conn.reader_done && conn.outstanding = 0)
    do
      Condition.wait conn.out_cond conn.out_lock
    done;
    if Queue.is_empty conn.outbox then begin
      (* reader finished and every dispatched request answered *)
      Mutex.unlock conn.out_lock;
      ()
    end
    else begin
      let line = Queue.pop conn.outbox in
      Mutex.unlock conn.out_lock;
      (if not conn.dead then
         try
           output_string conn.oc line;
           flush conn.oc
         with Sys_error _ | Unix.Unix_error _ -> conn.dead <- true);
      loop ()
    end
  in
  loop ();
  (try flush conn.oc with Sys_error _ | Unix.Unix_error _ -> ());
  (* both channels share the fd; close it exactly once (the reader has
     already returned — it set [reader_done] before the writer exits) *)
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

let spawn_conn t fd =
  let conn =
    {
      fd;
      reader =
        { buf = Bytes.create 65536; pos = 0; len = 0; line = Buffer.create 256 };
      oc = Unix.out_channel_of_descr fd;
      out_lock = Mutex.create ();
      out_cond = Condition.create ();
      outbox = Queue.create ();
      outstanding = 0;
      reader_done = false;
      dead = false;
    }
  in
  let reader = Thread.create (reader_loop t conn) () in
  let writer = Thread.create (writer_loop conn) () in
  Mutex.lock t.state_lock;
  t.conns <- (reader, writer) :: t.conns;
  Mutex.unlock t.state_lock

let run t =
  (* a client vanishing mid-write must be an EPIPE error, not a fatal
     signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let rec accept_loop () =
    match Unix.select [ t.listen_fd; t.stop_pipe_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | readable, _, _ ->
        if List.mem t.stop_pipe_r readable then begin
          (* the kernel completes connections into the listen backlog
             before we accept them — a client may already have
             connected and sent requests.  Those are accepted work:
             drain the backlog before closing the listener, or the
             close would RST them mid-burst. *)
          Unix.set_nonblock t.listen_fd;
          let rec drain_backlog () =
            match Unix.accept t.listen_fd with
            | fd, _ ->
                Unix.clear_nonblock fd;
                spawn_conn t fd;
                drain_backlog ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                ()
            | exception Unix.Unix_error _ -> ()
          in
          drain_backlog ()
        end
        else (
          match Unix.accept t.listen_fd with
          | fd, _ ->
              spawn_conn t fd;
              accept_loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | exception Unix.Unix_error _ ->
              (* listener closed under us, or a transient accept
                 failure during shutdown *)
              Mutex.lock t.state_lock;
              let stopping = t.stopping in
              Mutex.unlock t.state_lock;
              if not stopping then accept_loop ())
  in
  accept_loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.unix_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ());
  (* serve connected clients until they disconnect *)
  let rec join_all () =
    Mutex.lock t.state_lock;
    let conns = t.conns in
    t.conns <- [];
    Mutex.unlock t.state_lock;
    match conns with
    | [] -> ()
    | _ ->
        List.iter
          (fun (reader, writer) ->
            Thread.join reader;
            Thread.join writer)
          conns;
        join_all ()
  in
  join_all ();
  (* drain every accepted computation, then release the domains *)
  Pool.Executor.shutdown t.exec;
  try ignore (Unix.close t.stop_pipe_r); Unix.close t.stop_pipe_w
  with Unix.Unix_error _ -> ()

let start t = Thread.create run t
