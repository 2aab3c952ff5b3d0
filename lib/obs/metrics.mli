(** A process-global registry of named counters, gauges and log-scale
    latency histograms.

    Hot-path discipline: look a metric up {e once} at module
    initialisation ([let c = Metrics.counter "ifds.path_edges"]) and
    increment the returned handle — [incr] is a single unboxed field
    mutation, cheap enough for the IFDS inner loop.

    Metric names are stable, dot-namespaced identifiers
    ([ifds.path_edges], [bidi.alias_queries], [cg.edges], …); the
    snapshot and JSON export sort them so output is deterministic.
    [reset] zeroes every value but keeps registrations, so tests (and
    successive benchmark sections) are isolated from each other.

    The registry is domain-safe: counters and gauges are atomic cells,
    histograms observe under a per-histogram mutex, and registration
    is serialised — parallel app-level runs ({!Fd_util.Pool}) may
    share every handle. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** [counter name] registers (or retrieves) the counter [name]. *)

val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
(** O(1): one integer field increment *)

val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> float -> unit
val set_int : gauge -> int -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** [observe h v] records one sample (for latencies, in seconds) into
    the power-of-two bucket of [v]. *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and observes its wall-clock duration. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_buckets : histogram -> (float * int) list
(** [(upper_bound_seconds, count)] for each non-empty bucket *)

val reset : unit -> unit
(** zero every registered metric, keeping registrations *)

(** an immutable copy of every registered metric's current value *)
type snapshot = {
  sn_counters : (string * int) list;  (** sorted by name *)
  sn_gauges : (string * float) list;
  sn_histograms : (string * hist_summary) list;
}

and hist_summary = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;  (** 0. when empty *)
  hs_max : float;
  hs_buckets : (float * int) list;
  hs_p50 : float;
      (** quantile estimates, linearly interpolated within the
          log-scale bucket holding the rank and clamped to
          [[min, max]]; 0. when empty *)
  hs_p90 : float;
  hs_p99 : float;
}

val snapshot : unit -> snapshot

val counter_value : string -> int
(** [counter_value name] is the current value, 0 when unregistered
    (for tests and contract checks). *)

val histogram_summary : string -> hist_summary option
(** [histogram_summary name] is the named histogram's current summary
    (count/sum/extrema/quantiles), or [None] when unregistered — the
    accessor the service's [stats] verb reports latency from. *)

val diff : snapshot -> snapshot -> snapshot
(** [diff after before] is the work that happened between the two
    snapshots: counters and histogram counts/sums/buckets subtract
    (clamped at zero), gauges keep their [after] value (they are
    levels, not totals), and histogram quantiles/extrema are
    re-estimated from the surviving buckets.

    This is the domain-safe replacement for the
    {!reset}-before-each-unit idiom: [reset] zeroes every concurrent
    run's baseline, while snapshot-and-diff never mutates the shared
    registry.  Under concurrency the delta attributes {e all} work in
    the window — including other domains' — to the window; callers
    that need exact per-request numbers should read them from the
    engine's own result record and use the delta for aggregates. *)

val to_json : unit -> Json.t
(** [to_json ()] is the JSON rendering of [snapshot ()] *)
