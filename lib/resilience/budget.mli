(** Cooperative work/time budgets for the solvers.

    A [Budget.t] bundles every reason an analysis may be asked to stop
    early: a wall-clock deadline, a propagation (path-edge) cap,
    cooperative cancellation, and an optional chaos harness that
    injects solver-step faults.  The IFDS worklist loops call {!tick}
    once per propagation; the call is O(1) — the wall clock is only
    consulted every 256 ticks (and on the very first one, so
    zero-second deadlines fire even on tiny apps).

    Once any limit trips, the budget is {e stopped}: every further
    [tick] returns [false] immediately and {!outcome} reports the
    typed reason.  Stopping is sticky and first-reason-wins. *)

type t

val create :
  ?deadline_s:float ->
  ?max_propagations:int ->
  ?chaos:Chaos.t ->
  unit ->
  t
(** [create ()] is unlimited.  [deadline_s] is relative wall-clock
    seconds from now; [max_propagations] caps solver path-edge
    propagations; [chaos] makes periodic ticks raise
    {!Chaos.Fault} with the harness's rate (for barrier tests). *)

val unlimited : unit -> t

val tick : t -> bool
(** [tick t] accounts one unit of solver work.  [true] = keep going;
    [false] = a limit has tripped (now or earlier) and the caller must
    stop propagating.  May raise {!Chaos.Fault} when a chaos harness
    is attached (only at clock-check ticks).  Bumps the
    [resilience.budget_hits] / [resilience.deadline_hits] counters
    when a limit first trips. *)

val stopped : t -> bool
(** whether any limit has tripped (checks the deadline eagerly, so a
    worklist loop polling [stopped] terminates promptly even between
    ticks) *)

val cancel : t -> unit
(** request cooperative cancellation: the next {!tick} / {!stopped}
    observes it.  Safe to call from a signal handler.  Bumps
    [resilience.cancellations]. *)

val cancel_all : unit -> unit
(** request process-wide cooperative cancellation: every live budget —
    and every budget created afterwards — observes it at its next
    {!tick}/{!stopped}, yielding [Cancelled] outcomes.  Allocation-free
    and async-signal-safe, so the long-running runners install it as
    their SIGINT/SIGTERM handler and still print partial outcome
    tables. *)

val cancelling_all : unit -> bool
(** whether {!cancel_all} has been requested *)

val outcome : t -> Outcome.t
(** [Complete] while live; the stop reason once stopped *)

val propagations : t -> int
(** ticks consumed so far *)

val post_mortem : t -> Fd_obs.Ring.t -> (int -> int -> int -> string) -> string
(** [post_mortem t ring render] is a solve's post-mortem: its flight
    recorder's events rendered by [render] (see {!Fd_obs.Ring.render}),
    followed, once [t] has stopped, by
    ["budget.stop <reason> props=<n>"] *)
