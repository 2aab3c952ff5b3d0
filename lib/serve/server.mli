(** The fault-tolerant analysis-as-a-service daemon core.

    A long-lived Unix-socket server speaking the length-prefixed JSON
    protocol of {!Protocol}, built from the existing resilience
    primitives:

    - {b warm start}: the default rule sets and the framework-skeleton
      scene are built once at startup
      ({!Fd_core.Infoflow.warm_templates}), so each request's
      {!Fd_frontend.Apk.load_merged} pays only a [Scene.copy] of the skeleton
      instead of the whole framework cost;
    - {b admission control}: requests enter a bounded {!Squeue}; a
      full queue rejects immediately with [overloaded] and a
      [retry_after_ms] estimate instead of buffering unbounded work;
    - {b worker supervision}: [sv_workers] analysis workers run on
      their own domains, each request wrapped in
      {!Fd_resilience.Barrier} + a per-request
      {!Fd_resilience.Budget} deadline.  A worker that dies (an
      exception outside the barrier, e.g. service-level chaos) is
      restarted by the supervisor and its request re-admitted;
    - {b graceful degradation}: a failed attempt (crash or blown
      deadline) is retried once — after 10 ms, or 5 ms when a worker
      died at pickup — on the next rung of
      {!Fd_core.Config.degradation_ladder}, so a
      poisoned input yields a [degraded]/[partial] outcome row rather
      than taking the daemon down.  Every admitted request receives
      {e exactly one} reply;
    - {b graceful drain}: {!drain} (the protocol [drain] verb, or
      SIGTERM/SIGINT in the daemon binary) stops admitting, lets
      in-flight and queued work finish within a grace period, then
      deadline-outs the rest via cooperative budget cancellation.

    Operational state is published under [serve.*] metric names
    ([serve.requests], [serve.rejected_overloaded], [serve.retries],
    [serve.worker_restarts], [serve.queue_depth], [serve.in_flight],
    [serve.request_seconds], [serve.queue_wait_seconds],
    [serve.outcome.*]) and reported by the [health]/[stats] verbs. *)

type config = {
  sv_socket : string;  (** Unix-domain socket path *)
  sv_workers : int;  (** analysis worker domains *)
  sv_queue_capacity : int;  (** admission bound *)
  sv_max_frame_bytes : int;  (** oversized-request guard *)
  sv_drain_grace_s : float;  (** drain allowance before cancellation *)
  sv_chaos_rate : float;
      (** service-level fault injection rate; 0 = off.  Faults are
          injected both at worker pickup (killing the worker, proving
          supervision) and as solver-step faults through each
          request's budget (driving the degradation ladder). *)
  sv_chaos_seed : int;
  sv_base_config : Fd_core.Config.t;
      (** per-request analysis base: a request's options are decoded
          onto it, its [deadline_s] is the deadline of a request that
          sets no ["deadline_ms"], and every attempt's budget comes
          from the request's config ({!Fd_core.Config.budget}), so
          [max_propagations] caps each attempt *)
  sv_attempt_hook : (string -> int -> unit) option;
      (** test seam, called with (app name, attempt number) outside
          the barrier before each attempt: a raise here kills the
          worker exactly like a real supervision fault *)
}

val default_config : socket:string -> config
(** 2 workers, queue capacity 64, 8 MiB frames, 5 s drain grace,
    chaos off, and {!Fd_core.Config.default} with a 30 s deadline as
    the base *)

type t

val start : config -> t
(** Boot the daemon: bind the socket (replacing a stale file), warm
    the shared templates, spawn workers, supervisor and accept loop, and
    return immediately.  Ignores SIGPIPE (client disconnects must not
    kill the daemon).
    @raise Unix.Unix_error when the socket cannot be bound. *)

val draining : t -> bool

val running : t -> bool
(** [true] until {!stop} completes *)

val queue_depth : t -> int

val in_flight : t -> int

val retry_after_ms : t -> int
(** backpressure hint sent with rejections: mean observed service time
    × queue position ÷ workers.  Always within [50, 10_000] ms — the
    per-request estimate is clamped before any arithmetic, so a
    freshly-booted daemon with an empty service-time histogram still
    returns a sane value. *)

val stop : ?grace_s:float -> t -> unit
(** Graceful shutdown: {!drain}, wait up to the grace period (default
    [sv_drain_grace_s]) for queued + in-flight work, then cancel the
    stragglers' budgets cooperatively, reply to anything still queued,
    join every worker, and remove the socket.  Every admitted request
    has received its reply when [stop] returns.  Idempotent. *)
