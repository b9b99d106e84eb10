(* serve_open: the placement daemon ([wayplace_cli serve -j 1], a disk
   store in a scratch directory) driven by this one client process.

   Untraced runs measure cold requests: each set-up starts a fresh
   daemon and sends it, one at a time, the hot set — the 23 MiBench
   programs x {baseline, way-placement 16 KB, way-memoization} at the
   paper geometry — plus a few seeded off-paper (scheme, size, ways)
   cells, every request a computation.  Traced runs start one daemon,
   fill it the same way, then send open-loop Poisson traffic over two
   connections: about 98% hot-set store hits and 2% fresh cells, never
   repeated within a run, so each computes and writes to the store
   while hits are read beside it.  This is the only workload that runs
   the protocol, the store and the daemon. *)

open Common
module P = W.Serve.Protocol
module Client = W.Serve.Client
module Store = W.Serve.Store
module Ol = Perfbench_lib.Openloop

let limit_ms = 250.0
let fresh_share = 0.02
let hot_schemes = [ Config.Baseline; wayplace_kb 16; Config.Way_memoization ]

type cell = { bench : string; scheme : Config.scheme; size_kb : int; ways : int }

let cell_key c = Printf.sprintf "%s/%s/%dK%dw" c.bench (scheme_label c.scheme) c.size_kb c.ways
let hot_set = List.concat_map (fun bench -> List.map (fun scheme -> { bench; scheme; size_kb = 32; ways = 32 }) hot_schemes) Mibench.names

(* Fresh cells: every scheme at geometries off the paper point, in a
   seeded order.  Way-placement covers half the cache. *)
let fresh_pool rng =
  let geoms =
    List.concat_map (fun size_kb -> List.map (fun ways -> (size_kb, ways)) [ 4; 8; 16; 32 ]) [ 4; 8; 16; 32; 64 ]
    |> List.filter (fun g -> g <> (32, 32))
  in
  let cells =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun (size_kb, ways) ->
            List.map
              (fun scheme -> { bench; scheme; size_kb; ways })
              [ Config.Baseline; wayplace_kb (size_kb / 2); Config.Way_memoization;
                Config.Way_prediction; filter_512 ])
          geoms)
      Mibench.names
    |> Array.of_list
  in
  for i = Array.length cells - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = cells.(i) in
    cells.(i) <- cells.(j);
    cells.(j) <- t
  done;
  cells

let request c = P.Sim (P.sim_request ~size_kb:c.size_kb ~ways:c.ways ~benchmark:c.bench ~scheme:c.scheme ())
let cell_config c = config c.scheme ~size_kb:c.size_kb ~ways:c.ways

(* --- oracle: direct runs in this process, fast-forward off ------------- *)

type oracle = {
  preps : (string, Runner.prepared) Hashtbl.t;  (** committed specs *)
  expected : (string, string) Hashtbl.t;  (** cell key -> stats digest *)
}

let direct o c =
  let prep = Hashtbl.find o.preps c.bench in
  Runner.run_scheme ~fastforward:false prep (cell_config c)

let build_oracle () =
  let t0 = now () in
  let o = { preps = Hashtbl.create 32; expected = Hashtbl.create 256 } in
  List.iter (fun spec -> Hashtbl.replace o.preps spec.Spec.name (Runner.prepare spec)) Mibench.all;
  List.iter (fun c -> Hashtbl.replace o.expected (cell_key c) (digest (direct o c))) hot_set;
  log "serve_open oracle: %d hot cells in %.1f s" (List.length hot_set) (now () -. t0);
  o

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; endpoint : P.endpoint; store_dir : string }

let serve_dir = Filename.concat work_dir "serve"

let rec connect_until endpoint deadline =
  match Client.connect ~attempts:1 endpoint with
  | Ok c -> c
  | Error msg ->
      if now () > deadline then failwith msg;
      Thread.delay 0.002;
      connect_until endpoint deadline

(* The live daemon, stopped at exit whatever path the run takes. *)
let live = ref None

let start_daemon () =
  rm_rf serve_dir;
  mkdir_p serve_dir;
  let sock = Filename.concat serve_dir "wp.sock" in
  let store_dir = Filename.concat serve_dir "store" in
  let pid = spawn [| cli; "serve"; "--socket"; sock; "--store"; store_dir; "-j"; "1"; "-q" |] in
  live := Some pid;
  let endpoint = P.Unix_socket sock in
  let c = connect_until endpoint (now () +. 30.0) in
  (match Client.ping c with Ok () -> () | Error msg -> failwith ("daemon ping: " ^ msg));
  Client.close c;
  { pid; endpoint; store_dir }

(* SIGTERM is the daemon's graceful stop; it exits once every client has
   disconnected.  A daemon that does not exit in time is killed. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.01;
        wait ()
    | 0, _ ->
        log "daemon did not stop; killing it";
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  live := None

let store_entries d =
  Array.fold_left
    (fun n f -> if String.length f = 32 && f.[0] <> '.' then n + 1 else n)
    0
    (try Sys.readdir d.store_dir with Sys_error _ -> [||])

let server_stats d =
  let c = connect_until d.endpoint (now () +. 5.0) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      match Client.server_stats c with Ok s -> s | Error msg -> failwith ("server stats: " ^ msg))

(* --- cold requests: one at a time, each a computation --------------- *)

type cold = {
  ops : (string * (float * float)) list;  (** each request's cell and interval *)
  instrs : int;
  norms : (string * float) list;  (** (scheme, normalised I-cache energy) *)
  fresh : (cell * string) list;  (** off-paper cells and their digests, to verify *)
}

(* Closed loop: each request is one cold computation in the daemon
   (plus the benchmark's preparation, on its first request).  Hot cells
   are checked against the oracle at once, the others are returned for
   checking after timing.  The client calibrates between requests,
   while the daemon is idle. *)
let cold_requests ?(extra = []) tally o d =
  let c = connect_until d.endpoint (now () +. 5.0) in
  let replies = Hashtbl.create 128 in
  let fresh = ref [] in
  let ops =
    List.filter_map
      (fun cell ->
        tally.attempted <- tally.attempted + 1;
        let t = now () in
        let r =
          Client.sim c
            (P.sim_request ~size_kb:cell.size_kb ~ways:cell.ways ~benchmark:cell.bench
               ~scheme:cell.scheme ())
        in
        let op = (t, now ()) in
        calibrate ();
        match (r, Hashtbl.find_opt o.expected (cell_key cell)) with
        | Ok r, Some expect when r.P.digest = expect ->
            Hashtbl.replace replies (cell_key cell) r;
            Some (cell_key cell, op)
        | Ok r, None ->
            fresh := (cell, r.P.digest) :: !fresh;
            Hashtbl.replace replies (cell_key cell) r;
            Some (cell_key cell, op)
        | Ok _, Some _ ->
            tally.failed <- tally.failed + 1;
            log "FAILED cold request %s: digest differs from a direct run" (cell_key cell);
            None
        | Error msg, _ ->
            tally.failed <- tally.failed + 1;
            log "FAILED cold request %s: %s" (cell_key cell) msg;
            None)
      (hot_set @ extra)
  in
  Client.close c;
  let instrs = Hashtbl.fold (fun _ r a -> a + r.P.retired) replies 0 in
  let norms =
    List.filter_map
      (fun cell ->
        let base = Hashtbl.find_opt replies (cell_key { cell with scheme = Config.Baseline }) in
        match (cell.scheme, Hashtbl.find_opt replies (cell_key cell), base) with
        | (Config.Way_placement _ | Config.Way_memoization), Some r, Some b ->
            Some (scheme_label cell.scheme, r.P.icache_energy_pj /. b.P.icache_energy_pj)
        | _ -> None)
      hot_set
  in
  { ops; instrs; norms; fresh = !fresh }

(* --- open-loop traffic ------------------------------------------------- *)

type slot = {
  cell : cell;
  due : float;
  mutable sent : float;
  mutable finished : float option;
  mutable reply : P.response option;
}

type conn = {
  client : Client.t;
  mutable next_id : int;
  pending : (int, slot) Hashtbl.t;
  lock : Mutex.t;
  mutable reader : Thread.t option;
  mutable closing_id : int;  (** the reader stops after this reply *)
}

type traffic = {
  conns : conn array;
  rng : Random.State.t;
  fresh : cell array;
  mutable next_fresh : int;
  mutable spans : Spans.t option;
  done_lock : Mutex.t;
  mutable outstanding : int;
}

let reader t ci conn () =
  let rec loop () =
    match Client.recv conn.client with
    | Error _ -> ()
    | Ok resp ->
        let finished = now () in
        Mutex.lock conn.lock;
        let slot = Hashtbl.find_opt conn.pending resp.P.id in
        Hashtbl.remove conn.pending resp.P.id;
        Mutex.unlock conn.lock;
        (match slot with
        | Some s ->
            s.reply <- Some resp;
            s.finished <- Some finished;
            Option.iter
              (fun sp -> Spans.record sp ~tid:(ci + 1) "loadgen.request" ~start:s.due ~stop:finished)
              t.spans
        | None -> ());
        Mutex.lock t.done_lock;
        t.outstanding <- t.outstanding - 1;
        Mutex.unlock t.done_lock;
        if resp.P.id <> conn.closing_id then loop ()
  in
  loop ()

let open_traffic d ~rng ~fresh =
  let conns =
    Array.init 2 (fun _ ->
        {
          client = connect_until d.endpoint (now () +. 5.0);
          next_id = 1;
          pending = Hashtbl.create 1024;
          lock = Mutex.create ();
          reader = None;
          closing_id = -1;
        })
  in
  let t =
    {
      conns;
      rng;
      fresh;
      next_fresh = 0;
      spans = None;
      done_lock = Mutex.create ();
      outstanding = 0;
    }
  in
  Array.iteri (fun i c -> c.reader <- Some (Thread.create (reader t i c) ())) conns;
  t

(* A final ping per connection tells its reader to stop, so no thread
   is left blocked on a socket. *)
let close_traffic t =
  Array.iter
    (fun c ->
      Mutex.lock c.lock;
      c.closing_id <- c.next_id;
      c.next_id <- c.next_id + 1;
      Mutex.unlock c.lock;
      Mutex.lock t.done_lock;
      t.outstanding <- t.outstanding + 1;
      Mutex.unlock t.done_lock;
      ignore (Client.send c.client P.Ping))
    t.conns;
  Array.iter (fun c -> Option.iter Thread.join c.reader) t.conns;
  Array.iter (fun c -> Client.close c.client) t.conns

let draw t =
  if Random.State.float t.rng 1.0 < fresh_share && t.next_fresh < Array.length t.fresh then begin
    let c = t.fresh.(t.next_fresh) in
    t.next_fresh <- t.next_fresh + 1;
    c
  end
  else List.nth hot_set (Random.State.int t.rng (List.length hot_set))

(* Send every request of one Poisson schedule at its due time,
   alternating connections, then wait for the replies (at most
   [drain_s] past the last due time; unanswered requests fail). *)
let phase t ~rate ~duration ~drain_s =
  let offsets = Ol.schedule ~rng:t.rng ~rate ~duration in
  let start = now () +. 0.05 in
  let slots =
    Array.mapi
      (fun i off ->
        let s = { cell = draw t; due = start +. off; sent = 0.0; finished = None; reply = None } in
        let wait = s.due -. now () in
        if wait > 0.0 then Thread.delay wait;
        let conn = t.conns.(i land 1) in
        Mutex.lock t.done_lock;
        t.outstanding <- t.outstanding + 1;
        Mutex.unlock t.done_lock;
        Mutex.lock conn.lock;
        let id = conn.next_id in
        conn.next_id <- id + 1;
        Hashtbl.replace conn.pending id s;
        Mutex.unlock conn.lock;
        s.sent <- now ();
        (match Client.send conn.client (request s.cell) with
        | sent_id -> assert (sent_id = id)
        | exception exn -> log "send failed: %s" (Printexc.to_string exn));
        Option.iter
          (fun sp -> Spans.record sp "client.send" ~start:s.sent ~stop:(now ()))
          t.spans;
        s)
      offsets
  in
  let deadline = start +. duration +. drain_s in
  Mutex.lock t.done_lock;
  while t.outstanding > 0 && now () < deadline do
    Mutex.unlock t.done_lock;
    Thread.delay 0.005;
    Mutex.lock t.done_lock
  done;
  Mutex.unlock t.done_lock;
  slots

(* Check every reply: hot cells against the oracle now, fresh cells
   (returned) after timing.  A missing, failed or mismatching reply
   fails its request. *)
let settle tally o slots =
  let fresh = ref [] in
  let outcomes =
    Array.map
      (fun s ->
        tally.attempted <- tally.attempted + 1;
        let ok =
          match s.reply with
          | Some { P.reply = P.Sim_reply r; _ } -> (
              match Hashtbl.find_opt o.expected (cell_key s.cell) with
              | Some d -> d = r.P.digest
              | None ->
                  fresh := (s.cell, r.P.digest) :: !fresh;
                  true)
          | Some _ | None -> false
        in
        if not ok then begin
          tally.failed <- tally.failed + 1;
          log "FAILED request %s" (cell_key s.cell)
        end;
        { Ol.due = s.due; sent = s.sent; finished = (if ok then s.finished else None) })
      slots
  in
  (outcomes, !fresh)

let verify_fresh tally o fresh =
  List.iter
    (fun (c, got) ->
      if digest (direct o c) <> got then begin
        tally.failed <- tally.failed + 1;
        log "FAILED fresh %s: digest differs from a direct run" (cell_key c)
      end)
    fresh

(* The tail level is fixed by 80% of the expected request count, so the
   Poisson spread of the count cannot move it between runs. *)
let summary ~rate ~duration outcomes =
  let s =
    Ol.summarize ~support:(int_of_float (0.8 *. rate *. duration)) ~rate ~limit_ms outcomes
  in
  (match s.Ol.tail with
  | Some tl ->
      log "%.0f req/s: p50 %.2f ms, %s %.2f ms over %d (lag p50 %.2f max %.2f ms, backlog %d/%.0f)%s"
        rate s.Ol.p50_ms (Q.level_name tl.Q.level) tl.Q.value tl.Q.samples s.Ol.lag_p50_ms
        s.Ol.lag_max_ms s.Ol.end_backlog s.Ol.backlog_limit
        (if Ol.sustained ~limit_ms s then "" else "  NOT SUSTAINED")
  | None -> log "%.0f req/s: too few requests for a tail" rate);
  s

let tail_ms s = match s.Ol.tail with Some t -> t.Q.value | None -> Float.infinity

(* --- runs ---------------------------------------------------------------- *)

(* Set-up: start a daemon and send it the hot set (plus [extra]) as cold
   requests; [f] gets the set-up time in nominal-host seconds.  The daemon is stopped when [f]
   returns or raises. *)
let with_daemon ?extra tally o f =
  let t0 = now () in
  let d = start_daemon () in
  let started = (t0, now ()) in
  calibrate ();
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let pw = cold_requests ?extra tally o d in
      f d pw (List.fold_left (fun a (_, op) -> a +. nominal op) (nominal started) pw.ops))

(* Each daemon start is one set-up: the hot set plus [fresh_per_daemon]
   seeded off-paper cells, every request a cold computation.  A daemon's
   speed varies from one start to the next (where its threads and
   domains land) more than within one lifetime, so a run starts at
   least [min_daemons], one after the other, and the set-up time is
   their median. *)
let fresh_per_daemon = 12
let min_daemons = 3

let run ~seed ~seconds =
  let tally = tally () in
  let o = build_oracle () in
  Gc.compact ();
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let pool = fresh_pool rng in
  let deadline = now () +. seconds in
  let rec daemons i acc =
    let extra = Array.to_list (Array.sub pool (i * fresh_per_daemon) fresh_per_daemon) in
    let t0 = now () in
    let r =
      with_daemon ~extra tally o (fun d pw setup_s ->
          log "daemon %d: set-up %.3f s" (i + 1) setup_s;
          (pw, setup_s, peak_rss_mb d.pid))
    in
    let acc = r :: acc in
    if i + 1 < min_daemons || now () +. (now () -. t0) <= deadline then daemons (i + 1) acc
    else List.rev acc
  in
  let results = daemons 0 [] in
  List.iter (fun ((pw : cold), _, _) -> verify_fresh tally o pw.fresh) results;
  let ops = List.concat_map (fun (pw, _, _) -> pw.ops) results in
  let busy_s = List.fold_left (fun a (_, op) -> a +. nominal op) 0.0 ops in
  let instrs = List.fold_left (fun a (pw, _, _) -> a + pw.instrs) 0 results in
  let first, _, _ = List.hd results in
  let norms label = List.filter_map (fun (l, v) -> if l = label then Some v else None) first.norms in
  log "serve_open: %d daemons" (List.length results);
  ( tally,
    [
      m "setup_s" "s" (Q.median (List.map (fun (_, s, _) -> s) results));
      m "sim_instrs_per_s" "1/s" (float_of_int instrs /. busy_s);
    ]
    @ op_metrics ~what:"serve_open"
        ~support:(min_daemons * (List.length hot_set + fresh_per_daemon))
        (List.map (fun (k, op) -> (k, 1000.0 *. nominal op)) ops)
    @ [
        m "energy_err_pp" "pp" (energy_err_pp ~wayplace:(norms "wayplace") ~waymemo:(norms "waymemo"));
        m "peak_rss_mb" "MiB" (Q.median (List.map (fun (_, _, r) -> r) results));
      ] )

(* Median microseconds per call of [f] over [xs], each call in a span. *)
let layer_us spans name f xs =
  let times =
    List.map
      (fun x ->
        let t0 = now () in
        Spans.run spans name (fun () -> ignore (f x));
        (now () -. t0) *. 1e6)
      xs
  in
  Q.median times

let run_traced ~seed ~seconds:_ =
  let tally = tally () in
  let o = build_oracle () in
  Gc.compact ();
  with_daemon tally o (fun d _ _ ->
      let before = server_stats d in
      let entries_before = store_entries d in
      let rng = Random.State.make [| seed; 0x7ace |] in
      let t = open_traffic d ~rng ~fresh:(fresh_pool rng) in
      let fresh = ref [] in
      let run_phase ~rate ~duration =
        let slots = phase t ~rate ~duration ~drain_s:5.0 in
        let outcomes, f = settle tally o slots in
        fresh := f @ !fresh;
        (slots, summary ~rate ~duration outcomes)
      in
      let _, r100 = run_phase ~rate:100.0 ~duration:4.0 in
      let r400_slots, r400 = run_phase ~rate:400.0 ~duration:6.0 in
      let max_rate, _ =
        Ol.ladder ~base:100.0 ~factor:1.25 ~max_steps:14 ~step:(fun rate ->
            Ol.sustained ~limit_ms (snd (run_phase ~rate ~duration:1.5)))
      in
      log "max sustained rate %.1f req/s" max_rate;
      (* the traced pass: the r100 phase again, with spans *)
      let t0 = now () in
      ignore (run_phase ~rate:100.0 ~duration:4.0);
      let untraced_s = now () -. t0 in
      let spans = Spans.create () in
      t.spans <- Some spans;
      let t1 = now () in
      let traced_slots = phase t ~rate:100.0 ~duration:4.0 ~drain_s:5.0 in
      let traced_s = now () -. t1 in
      let traced_outcomes, f = settle tally o traced_slots in
      fresh := f @ !fresh;
      ignore (summary ~rate:100.0 ~duration:4.0 traced_outcomes);
      close_traffic t;
      let after = server_stats d in
      (* the daemon's layers, replicated from outside on the same inputs *)
      let sample = Array.to_list (Array.sub r400_slots 0 (min 400 (Array.length r400_slots))) in
      let lines = List.map (fun s -> P.request_to_line { P.id = 1; payload = request s.cell }) sample in
      let replies = List.filter_map (fun s -> s.reply) sample in
      let keyed =
        List.map
          (fun s ->
            let prep = Hashtbl.find o.preps s.cell.bench in
            let config = cell_config s.cell in
            (prep, config))
          sample
      in
      let key (prep, config) =
        Store.key ~program:prep.Runner.program
          ~order:(Binary_layout.order (Runner.layout_for prep config))
          ~config
      in
      let parse_us = layer_us spans "protocol.parse" P.request_of_line lines in
      let encode_us = layer_us spans "protocol.encode" P.response_to_line replies in
      let key_us = layer_us spans "store.key" key keyed in
      let store =
        match Store.create ~dir:(Filename.concat serve_dir "client-store") () with
        | Ok s -> s
        | Error msg -> failwith msg
      in
      let stats_of = Hashtbl.create 64 in
      List.iter
        (fun c -> Hashtbl.replace stats_of (cell_key c) (direct o c))
        (List.filteri (fun i _ -> i < 40) hot_set);
      let entries = Hashtbl.fold (fun k s acc -> (k, s) :: acc) stats_of [] in
      let put_us =
        layer_us spans "store.put"
          (fun (k, s) -> Store.put store (Digest.to_hex (Digest.string k)) s)
          entries
      in
      let find_us =
        layer_us spans "store.find"
          (fun (k, _) -> Store.find store (Digest.to_hex (Digest.string k)))
          entries
      in
      write_trace spans ~workload:"serve_open" ~seed;
      verify_fresh tally o !fresh;
      let computations = after.P.computations - before.P.computations in
      let sims = after.P.sim_requests - before.P.sim_requests in
      let hits = after.P.hits_memory + after.P.hits_disk - before.P.hits_memory - before.P.hits_disk in
      let written = store_entries d - entries_before in
      let lag =
        match Q.tail (Array.to_list (Array.map (fun s -> (s.sent -. s.due) *. 1000.0) r400_slots)) with
        | Some tl -> tl.Q.value
        | None -> 0.0
      in
      ( tally,
        [
          ("protocol.parse_us", parse_us);
          ("protocol.encode_us", encode_us);
          ("store.key_us", key_us);
          ("store.find_us", find_us);
          ("store.put_us", put_us);
          ("store.hit_ratio", if sims = 0 then 0.0 else float_of_int hits /. float_of_int sims);
          ("store.write_failures", float_of_int (computations - written));
          ("daemon.computations", float_of_int computations);
          ("daemon.coalesced", float_of_int (after.P.coalesced - before.P.coalesced));
          ( "daemon.residual_ms",
            r100.Ol.p50_ms -. ((parse_us +. key_us +. find_us +. encode_us) /. 1000.0) );
          ("lat_p50_ms.r100", r100.Ol.p50_ms);
          ("lat_tail_ms.r100", tail_ms r100);
          ("lat_p50_ms.r400", r400.Ol.p50_ms);
          ("lat_tail_ms.r400", tail_ms r400);
          ("max_rate_rps", max_rate);
          ("loadgen.lag_ms", lag);
          ("loadgen.backlog", float_of_int r400.Ol.end_backlog);
          ("trace.overhead_frac", (traced_s /. untraced_s) -. 1.0);
          ("host.calib_ms", Perfbench_lib.Hostspeed.mean_ms host);
        ] ))
