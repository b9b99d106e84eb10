module Pool = Wp_sim.Sweep.Pool
module Runner = Wp_sim.Runner
module Simulator = Wp_sim.Simulator
module Stats = Wp_sim.Stats
module Mp = Wp_mp.Machine
module Mix = Wp_mp.Mix
module P = Protocol

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

type outcome = (Stats.t, string) result

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
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
  inflight_lock : Mutex.t;
  inflight : (string, outcome Future.t) Hashtbl.t;
  mp_meta_lock : Mutex.t;
  mp_meta : (string, int * int) Hashtbl.t;
      (** key -> (switches, kernel_runs): machine-level facts the store
          does not persist.  In-memory only — a disk hit after a
          restart reports them as [-1]. *)
  advise_lock : Mutex.t;
  advise_cache : (string, P.advise_result) Hashtbl.t;
      (** advisor summaries are not [Stats.t], so they bypass the store
          and live in this in-memory cache; one lock covers both the
          cache and the advise in-flight table *)
  advise_inflight : (string, (P.advise_result, string) result Future.t) Hashtbl.t;
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

let create ?workers ?store_dir ~endpoint () =
  let ( let* ) = Result.bind in
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
          inflight_lock = Mutex.create ();
          inflight = Hashtbl.create 64;
          mp_meta_lock = Mutex.create ();
          mp_meta = Hashtbl.create 16;
          advise_lock = Mutex.create ();
          advise_cache = Hashtbl.create 16;
          advise_inflight = Hashtbl.create 16;
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

let inflight_count t =
  Mutex.lock t.inflight_lock;
  let n = Hashtbl.length t.inflight in
  Mutex.unlock t.inflight_lock;
  Mutex.lock t.advise_lock;
  let n = n + Hashtbl.length t.advise_inflight in
  Mutex.unlock t.advise_lock;
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
    inflight = inflight_count t;
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

(* --- request handling ----------------------------------------------- *)

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

(* Run one computation (on an executor domain, or inline when the
   executor is already draining), publish to the store, resolve the
   future.  [registered] tells us to drop the in-flight entry; the
   store [put] happens strictly before that removal, so a request that
   misses the in-flight table afterwards is guaranteed to hit the
   store — the computation counter can never exceed the number of
   distinct keys (plus deliberate [no_cache] runs). *)
let run_computation t ~prep ~config ~key ~verify ~registered fut =
  let outcome =
    (* every computation shares the sweep engine's snapshot cache:
       converged loop iterations recorded for one request fast-forward
       every later request whose fingerprints coincide — most visibly
       the cells of a grid, which differ only in configuration.  The
       result is bit-identical either way (the cache key pins the
       compiled trace and the full config; the differ enforces the
       equality). *)
    match
      Runner.run_scheme
        ~snapshot_cache:(Wp_sim.Sweep.snapshot_cache t.engine)
        prep config
    with
    | stats -> (
        Atomic.incr t.computations;
        match if verify then verify_against_reference prep config stats else Ok () with
        | Ok () ->
            Store.put t.store key stats;
            Ok stats
        | Error msg -> Error msg)
    | exception exn ->
        Error (Printf.sprintf "computation failed: %s" (Printexc.to_string exn))
  in
  if registered then begin
    Mutex.lock t.inflight_lock;
    Hashtbl.remove t.inflight key;
    Mutex.unlock t.inflight_lock
  end;
  Future.fulfill fut outcome

let complete_sim t conn id ~key ~source outcome =
  match outcome with
  | Ok stats ->
      complete conn
        { P.id; reply = P.Sim_reply (P.sim_result_of_stats ~key ~source stats) }
  | Error msg -> complete_error t conn id msg

(* Submit a computation; if the executor is draining (shutdown has
   begun) the request was still accepted, so run it inline on the
   reader thread rather than lose it. *)
let submit_computation t ~prep ~config ~key ~verify ~registered fut =
  let task () = run_computation t ~prep ~config ~key ~verify ~registered fut in
  if not (Pool.Executor.submit t.exec task) then task ()

(* Resolve one (prepared, config) cell through the full memoisation
   stack — store, in-flight coalescing, executor — calling [k] exactly
   once with the source and outcome: synchronously on a store hit,
   from an executor domain otherwise.  Shared by [Sim] requests and
   the cells of a [Grid]. *)
let resolve_sim t ~prep ~config ~key ~no_cache ~verify k =
  if no_cache then begin
    (* deliberate fresh run: no store read, no coalescing *)
    let fut = Future.create () in
    Future.on_ready fut (fun o -> k P.Computed o);
    submit_computation t ~prep ~config ~key ~verify ~registered:false fut
  end
  else
    let hit stats source counter =
      Atomic.incr counter;
      k source (Ok stats)
    in
    match Store.find t.store key with
    | Some (stats, `Memory) -> hit stats P.Memory t.hits_memory
    | Some (stats, `Disk) -> hit stats P.Disk t.hits_disk
    | None -> (
        Mutex.lock t.inflight_lock;
        match Hashtbl.find_opt t.inflight key with
        | Some fut ->
            Mutex.unlock t.inflight_lock;
            Atomic.incr t.coalesced_count;
            Future.on_ready fut (fun o -> k P.Coalesced o)
        | None -> (
            (* recheck under the in-flight lock: a computation that
               just completed publishes to the store before
               deregistering, so this order can't miss both tables and
               recompute *)
            match Store.find t.store key with
            | Some (stats, `Memory) ->
                Mutex.unlock t.inflight_lock;
                hit stats P.Memory t.hits_memory
            | Some (stats, `Disk) ->
                Mutex.unlock t.inflight_lock;
                hit stats P.Disk t.hits_disk
            | None ->
                let fut = Future.create () in
                Hashtbl.replace t.inflight key fut;
                Mutex.unlock t.inflight_lock;
                Future.on_ready fut (fun o -> k P.Computed o);
                submit_computation t ~prep ~config ~key ~verify
                  ~registered:true fut))

let handle_sim t conn id (sr : P.sim_request) =
  Atomic.incr t.sim_requests;
  match P.config_of_sim sr with
  | Error msg -> reply_error t conn id msg
  | Ok config -> (
      match Wp_sim.Sweep.prepared t.engine sr.P.benchmark with
      | exception Not_found ->
          reply_error t conn id
            (Printf.sprintf "unknown benchmark %S" sr.P.benchmark)
      | exception exn ->
          reply_error t conn id
            (Printf.sprintf "prepare failed: %s" (Printexc.to_string exn))
      | prep ->
          let layout = Runner.layout_for prep config in
          let key =
            Store.key ~program:prep.Runner.program
              ~order:(Wp_layout.Binary_layout.order layout)
              ~config
          in
          dispatch conn;
          resolve_sim t ~prep ~config ~key ~no_cache:sr.P.no_cache
            ~verify:sr.P.verify (fun source outcome ->
              complete_sim t conn id ~key ~source outcome))

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
            P.config_of_geometry ~scheme ~size_kb ~ways
              ~line_bytes:gr.P.g_line_bytes
          with
          | Error msg -> cell_error idx bench scheme size_kb ways msg
          | Ok config -> (
              match Wp_sim.Sweep.prepared t.engine bench with
              | exception Not_found ->
                  cell_error idx bench scheme size_kb ways
                    (Printf.sprintf "unknown benchmark %S" bench)
              | exception exn ->
                  cell_error idx bench scheme size_kb ways
                    (Printf.sprintf "prepare failed: %s"
                       (Printexc.to_string exn))
              | prep ->
                  let layout = Runner.layout_for prep config in
                  let key =
                    Store.key ~program:prep.Runner.program
                      ~order:(Wp_layout.Binary_layout.order layout)
                      ~config
                  in
                  resolve_sim t ~prep ~config ~key ~no_cache:gr.P.g_no_cache
                    ~verify:false (fun source outcome ->
                      match outcome with
                      | Ok stats ->
                          (match source with
                          | P.Computed -> Atomic.incr computed
                          | P.Memory -> Atomic.incr g_memory
                          | P.Disk -> Atomic.incr g_disk
                          | P.Coalesced -> Atomic.incr g_coalesced);
                          emit idx bench scheme size_kb ways
                            (Ok (P.sim_result_of_stats ~key ~source stats))
                      | Error msg ->
                          cell_error idx bench scheme size_kb ways msg)))
        cells

(* --- multiprogrammed requests ---------------------------------------- *)

(* The wire mix string, resolved to a concrete process list: MiBench
   names, or "random:SEED" through the fuzzer's deterministic mix
   generator.  Resolution is cheap (spec lookup / generation only);
   program generation and tracing happen inside [Mp.run] on an
   executor domain. *)
let resolve_mix (mr : P.mp_request) =
  let with_coverage mix =
    match mr.P.mp_coverage with
    | "mix" -> Ok mix
    | other -> (
        match Mix.coverage_of_string other with
        | Ok c -> Ok (Mix.apply_coverage c mix)
        | Error _ as e -> e)
  in
  let prefix = "random:" in
  let plen = String.length prefix in
  if
    String.length mr.P.mp_mix > plen
    && String.sub mr.P.mp_mix 0 plen = prefix
  then
    match
      int_of_string_opt
        (String.sub mr.P.mp_mix plen (String.length mr.P.mp_mix - plen))
    with
    | Some seed -> with_coverage (Wp_mp.Mix.of_seed seed)
    | None ->
        Error
          (Printf.sprintf "bad mix %S: random: needs an integer seed"
             mr.P.mp_mix)
  else
    match
      Mix.of_names
        (String.split_on_char ',' mr.P.mp_mix
        |> List.map String.trim
        |> List.filter (fun s -> s <> ""))
    with
    | Ok mix -> with_coverage mix
    | Error _ as e -> e

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
   the scheduler options are all the run depends on.  The "mp-" prefix
   keeps the namespace disjoint from single-process [Store.key]s, so
   both share the store and the in-flight table. *)
let mp_key ~mix ~(config : Wp_sim.Config.t) ~(options : Mp.options) =
  "mp-"
  ^ Digest.to_hex (Digest.string (Marshal.to_string (mix, config, options) []))

let mp_meta_for t key =
  Mutex.lock t.mp_meta_lock;
  let m = Hashtbl.find_opt t.mp_meta key in
  Mutex.unlock t.mp_meta_lock;
  match m with Some (s, k) -> (s, k) | None -> (-1, -1)

let run_mp_computation t ~mix ~config ~options ~key ~verify ~registered fut =
  let outcome =
    match Mp.run ~config ~options mix with
    | r -> (
        Atomic.incr t.computations;
        let verified =
          if not verify then Ok ()
          else
            match Mp.run ~reference_only:true ~config ~options mix with
            | refr ->
                if Stats.equal r.Mp.aggregate refr.Mp.aggregate then Ok ()
                else
                  Error
                    (Format.asprintf
                       "verification failed: mp fast path diverges from the \
                        reference loop:@ %a"
                       Stats.pp_diff
                       (r.Mp.aggregate, refr.Mp.aggregate))
            | exception exn ->
                Error
                  (Printf.sprintf "verification failed: reference run raised: %s"
                     (Printexc.to_string exn))
        in
        match verified with
        | Ok () ->
            Mutex.lock t.mp_meta_lock;
            Hashtbl.replace t.mp_meta key (r.Mp.switches, r.Mp.kernel_runs);
            Mutex.unlock t.mp_meta_lock;
            Store.put t.store key r.Mp.aggregate;
            Ok r.Mp.aggregate
        | Error msg -> Error msg)
    | exception exn ->
        Error (Printf.sprintf "computation failed: %s" (Printexc.to_string exn))
  in
  if registered then begin
    Mutex.lock t.inflight_lock;
    Hashtbl.remove t.inflight key;
    Mutex.unlock t.inflight_lock
  end;
  Future.fulfill fut outcome

let submit_mp t ~mix ~config ~options ~key ~verify ~registered fut =
  let task () =
    run_mp_computation t ~mix ~config ~options ~key ~verify ~registered fut
  in
  if not (Pool.Executor.submit t.exec task) then task ()

let complete_mp t conn id ~key ~source ~processes outcome =
  match outcome with
  | Ok stats ->
      let switches, kernel_runs = mp_meta_for t key in
      complete conn
        {
          P.id;
          reply =
            P.Mp_reply
              (P.mp_result_of_stats ~key ~source ~processes ~switches
                 ~kernel_runs stats);
        }
  | Error msg -> complete_error t conn id msg

let handle_mp t conn id (mr : P.mp_request) =
  Atomic.incr t.sim_requests;
  match P.config_of_mp mr with
  | Error msg -> reply_error t conn id msg
  | Ok config -> (
      match resolve_mix mr with
      | Error msg -> reply_error t conn id msg
      | exception exn ->
          reply_error t conn id
            (Printf.sprintf "mix resolution failed: %s" (Printexc.to_string exn))
      | Ok mix -> (
          let options = options_of_mp mr in
          let key = mp_key ~mix ~config ~options in
          let processes = List.length mix in
          let respond_hit stats source counter =
            Atomic.incr counter;
            let switches, kernel_runs = mp_meta_for t key in
            reply conn
              {
                P.id;
                reply =
                  P.Mp_reply
                    (P.mp_result_of_stats ~key ~source ~processes ~switches
                       ~kernel_runs stats);
              }
          in
          if mr.P.mp_no_cache then begin
            let fut = Future.create () in
            dispatch conn;
            Future.on_ready fut
              (complete_mp t conn id ~key ~source:P.Computed ~processes);
            submit_mp t ~mix ~config ~options ~key ~verify:mr.P.mp_verify
              ~registered:false fut
          end
          else
            match Store.find t.store key with
            | Some (stats, `Memory) -> respond_hit stats P.Memory t.hits_memory
            | Some (stats, `Disk) -> respond_hit stats P.Disk t.hits_disk
            | None -> (
                Mutex.lock t.inflight_lock;
                match Hashtbl.find_opt t.inflight key with
                | Some fut ->
                    Mutex.unlock t.inflight_lock;
                    Atomic.incr t.coalesced_count;
                    dispatch conn;
                    Future.on_ready fut
                      (complete_mp t conn id ~key ~source:P.Coalesced ~processes)
                | None -> (
                    match Store.find t.store key with
                    | Some (stats, `Memory) ->
                        Mutex.unlock t.inflight_lock;
                        respond_hit stats P.Memory t.hits_memory
                    | Some (stats, `Disk) ->
                        Mutex.unlock t.inflight_lock;
                        respond_hit stats P.Disk t.hits_disk
                    | None ->
                        let fut = Future.create () in
                        Hashtbl.replace t.inflight key fut;
                        Mutex.unlock t.inflight_lock;
                        dispatch conn;
                        Future.on_ready fut
                          (complete_mp t conn id ~key ~source:P.Computed
                             ~processes);
                        submit_mp t ~mix ~config ~options ~key
                          ~verify:mr.P.mp_verify ~registered:true fut))))

(* --- advisor requests ------------------------------------------------ *)

(* Content address of an advisor run: benchmark and the full geometry /
   area / page tuple the analysis depends on.  "advise-" keeps the
   namespace disjoint from sim and mp keys; the summary cache and
   in-flight table are advise-private (the store persists only
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

let run_advise_computation t ~prep ~(ar : P.advise_request) ~geometry ~key
    ~registered fut =
  let outcome =
    match
      Wp_advise.Advisor.analyze ~benchmark:ar.P.ad_benchmark
        ~graph:prep.Runner.program.Wp_workloads.Codegen.graph
        ~profile:prep.Runner.profile_small ~trace:prep.Runner.trace_large
        ~layout:prep.Runner.placed_layout ~geometry
        ~page_bytes:ar.P.ad_page_bytes
        ~area_bytes:(ar.P.ad_area_kb * 1024)
        ~energy:
          (Wp_sim.Config.xscale Wp_sim.Config.Baseline).Wp_sim.Config.energy
        ()
    with
    | report ->
        Atomic.incr t.computations;
        let result = P.advise_result_of_report ~key ~source:P.Computed report in
        (* publish before deregistering (same invariant as the store):
           a request missing the in-flight table afterwards must hit
           the cache *)
        Mutex.lock t.advise_lock;
        Hashtbl.replace t.advise_cache key result;
        if registered then Hashtbl.remove t.advise_inflight key;
        Mutex.unlock t.advise_lock;
        Ok result
    | exception exn ->
        if registered then begin
          Mutex.lock t.advise_lock;
          Hashtbl.remove t.advise_inflight key;
          Mutex.unlock t.advise_lock
        end;
        Error (Printf.sprintf "computation failed: %s" (Printexc.to_string exn))
  in
  Future.fulfill fut outcome

let submit_advise t ~prep ~ar ~geometry ~key ~registered fut =
  let task () =
    run_advise_computation t ~prep ~ar ~geometry ~key ~registered fut
  in
  if not (Pool.Executor.submit t.exec task) then task ()

let complete_advise t conn id ~source outcome =
  match outcome with
  | Ok r ->
      complete conn
        { P.id; reply = P.Advise_reply { r with P.adr_source = source } }
  | Error msg -> complete_error t conn id msg

let handle_advise t conn id (ar : P.advise_request) =
  Atomic.incr t.sim_requests;
  match
    Wp_cache.Geometry.make
      ~size_bytes:(ar.P.ad_size_kb * 1024)
      ~assoc:ar.P.ad_ways ~line_bytes:ar.P.ad_line_bytes
  with
  | exception Invalid_argument msg -> reply_error t conn id msg
  | geometry -> (
      match Wp_sim.Sweep.prepared t.engine ar.P.ad_benchmark with
      | exception Not_found ->
          reply_error t conn id
            (Printf.sprintf "unknown benchmark %S" ar.P.ad_benchmark)
      | exception exn ->
          reply_error t conn id
            (Printf.sprintf "prepare failed: %s" (Printexc.to_string exn))
      | prep ->
          let key = advise_key ar in
          if ar.P.ad_no_cache then begin
            let fut = Future.create () in
            dispatch conn;
            Future.on_ready fut (complete_advise t conn id ~source:P.Computed);
            submit_advise t ~prep ~ar ~geometry ~key ~registered:false fut
          end
          else begin
            Mutex.lock t.advise_lock;
            match Hashtbl.find_opt t.advise_cache key with
            | Some r ->
                Mutex.unlock t.advise_lock;
                Atomic.incr t.hits_memory;
                reply conn
                  {
                    P.id;
                    reply = P.Advise_reply { r with P.adr_source = P.Memory };
                  }
            | None -> (
                match Hashtbl.find_opt t.advise_inflight key with
                | Some fut ->
                    Mutex.unlock t.advise_lock;
                    Atomic.incr t.coalesced_count;
                    dispatch conn;
                    Future.on_ready fut
                      (complete_advise t conn id ~source:P.Coalesced)
                | None ->
                    let fut = Future.create () in
                    Hashtbl.replace t.advise_inflight key fut;
                    Mutex.unlock t.advise_lock;
                    dispatch conn;
                    Future.on_ready fut
                      (complete_advise t conn id ~source:P.Computed);
                    submit_advise t ~prep ~ar ~geometry ~key ~registered:true
                      fut)
          end)

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

let reader_loop t conn () =
  let rec loop () =
    match input_line conn.ic with
    | line ->
        (* isolate the handler: a crashing request must answer that
           request, not end the connection *)
        (try handle_line t conn line
         with exn ->
           reply_error t conn 0
             (Printf.sprintf "internal error: %s" (Printexc.to_string exn)));
        loop ()
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
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
      ic = Unix.in_channel_of_descr fd;
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
