(** The placement service: a long-running daemon answering simulation
    requests over a Unix or TCP socket.

    Layering:

    - connections are handled by lightweight threads (a reader and a
      writer each), so thousands of concurrent requests cost two
      threads per {e connection}, not per request;
    - simulations are scheduled on a persistent
      {!Wp_sim.Sweep.Pool.Executor} domain pool;
    - results come from a content-addressed {!Store} (hot memory +
      optional disk persistence), and {e in-flight} identical requests
      coalesce onto one computation through a table of futures — the
      sweep engine's shared-baseline dedup generalised to live
      traffic.  Every request kind — sim, each grid cell, mp and
      advise — takes the one memo path: published result, then
      in-flight table, then executor.  Sim and mp results are
      [Stats.t] and share the store (so both persist) and one
      in-flight table; advisor summaries live in an in-memory map with
      their own in-flight table;
    - per-request error isolation: a malformed or oversize line,
      unknown benchmark, invalid configuration or crashing computation
      answers that request with {!Protocol.Error_reply} and nothing
      else — the connection stays up, the daemon stays up.

    Graceful shutdown (a [shutdown] request, or {!stop}): the listener
    closes immediately, connected clients keep being served until they
    disconnect, and the executor drains every accepted computation
    before {!run} returns — a shutdown mid-burst loses no accepted
    request. *)

type t

val create :
  ?workers:int ->
  ?store_dir:string ->
  endpoint:Protocol.endpoint ->
  unit ->
  (t, string) result
(** Bind and listen (but do not accept yet).  [workers] sizes the
    executor domain pool (default
    [Domain.recommended_domain_count ()]); [store_dir] enables disk
    persistence.  A Unix-socket path is unlinked first if a stale one
    exists; [Tcp (host, 0)] binds a kernel-chosen port, readable back
    via {!endpoint}. *)

val endpoint : t -> Protocol.endpoint
(** The actual listening endpoint (TCP port resolved). *)

val run : t -> unit
(** Serve until a graceful stop completes: accept loop, then drain.
    Blocks the calling thread; returns only when the listener is
    closed, every connection has ended and the executor has drained. *)

val start : t -> Thread.t
(** [Thread.create run t] — the in-process way to host a daemon
    (tests, the loadtest self-spawn). *)

val stop : t -> unit
(** Initiate a graceful stop from any thread; idempotent.  {!run}
    still waits for connected clients to disconnect. *)

val computations : t -> int
(** Simulator runs so far — the counter the O(1)-warm-repeat
    acceptance test reads. *)

val server_stats : t -> Protocol.server_stats
val store : t -> Store.t

val max_line_bytes : int
(** The longest request line read (1 MiB, newline excluded).  A longer
    line is dropped up to its newline and answered with one
    {!Protocol.Error_reply}; the connection stays up. *)
