(** Span-based phase tracing for the analysis pipeline.

    Spans nest: [with_span "taint.solve" f] records one span whose
    parent is whatever span is open on this thread of execution when it
    starts.  The recorded tree can be exported as

    - Chrome [trace_event] JSON ({!to_chrome_string}) — load the file in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto};
    - per-phase aggregate durations ({!aggregate}) for stats JSON.

    Timestamps are wall-clock, relative to the first span after the
    last {!reset}.

    Domain-safety: each domain records into its own store (hot path is
    lock-free); read-outs merge all stores in worker order, and the
    Chrome export labels each span with its worker's tid so parallel
    app runs render as separate tracks. *)

type span = {
  sp_name : string;
  sp_start : float;  (** seconds since the trace epoch *)
  sp_dur : float;  (** seconds; 0. while still open *)
  sp_depth : int;  (** nesting depth, 0 = top level *)
  sp_parent : int;  (** index of the parent span, -1 at top level *)
}

val end_span : unit -> unit
(** @raise Invalid_argument when no span is open *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] brackets [f] in a span; the span is closed even
    when [f] raises. *)

val depth : unit -> int
(** number of currently open spans *)

val spans : unit -> span list
(** completed and open spans, in start order *)

val aggregate : unit -> (string * float * int) list
(** [(name, total_seconds, count)] per distinct span name, sorted by
    name.  Nested spans count toward their own name only. *)

val reset : unit -> unit
(** drop all recorded spans and re-arm the epoch; open spans are
    discarded *)

val reset_domain : unit -> unit
(** drop the spans the calling domain has recorded, leaving other
    domains' spans and the epoch alone; a no-op while a span is open
    on this domain.  A long-lived worker domain calls it between jobs
    so that its store does not grow with every job it runs. *)

val to_chrome_string : unit -> string
