(** The command-line flags the executables share, each defined once
    with its converter, environment variable and documentation.

    A flag that sets analysis options is an {!edit} term and {!config}
    folds a list of them over {!Fd_core.Config.default}; an executable
    lists exactly the flags it accepts.  The output sinks
    ([--stats-json], [--trace-out], [--profile-out]) come as one
    {!sinks} term with one writer. *)

open Cmdliner

type edit = Fd_core.Config.t -> Fd_core.Config.t

val config : edit Term.t list -> Fd_core.Config.t Term.t
(** [config edits] applies [edits] to {!Fd_core.Config.default}, in
    list order. *)

(** {1 Analysis options} *)

val precision : edit Term.t
(** [--precision PASSES] (env [FLOWDROID_PRECISION]): the opt-in
    precision passes, parsed by {!Fd_core.Config.precision_of_string}. *)

val targeted : edit Term.t
(** [--targeted SIG] (env [FLOWDROID_TARGETED]): repeatable, and each
    value may be a comma-separated list; blanks are dropped.  The
    environment variable applies only when the flag is absent. *)

val targeted_no_env : edit Term.t
(** [--targeted] without its environment variable. *)

val icc : edit Term.t
(** [--icc] (env [FLOWDROID_ICC], any cmdliner boolean spelling). *)

val deadline : edit Term.t
(** [--deadline SECS]: the per-run wall-clock deadline. *)

val summary_store : edit Term.t
(** [--summary-store DIR] (env [FLOWDROID_SUMMARY_STORE]; an empty
    value means off).  When set, the edit also installs the store
    backend ({!Fd_store.Store.install}). *)

val provenance : edit Term.t
(** [--provenance]: record witness paths while solving. *)

(** {1 Parallelism} *)

val int_at_least : int -> int Arg.conv
(** integers [>= n]; anything else is a command-line error *)

val jobs : int Term.t
(** [--jobs N] (env [FLOWDROID_JOBS], default 1): domains for the
    per-app loop, through [int_at_least 1]. *)

(** {1 Output sinks} *)

type sinks = {
  stats_json : string option;  (** [--stats-json FILE] *)
  trace_out : string option;  (** [--trace-out FILE] *)
  profile_out : string option;  (** [--profile-out FILE] *)
}

val sinks : sinks Term.t
(** all three sink flags *)

val sinks_no_profile : sinks Term.t
(** [--stats-json] and [--trace-out] only *)

val profile : sinks -> edit
(** turns on {!Fd_core.Config.t.profile} when a profile sink is
    requested *)

val write_sinks : ?extra:(string * Fd_obs.Json.t) list -> sinks -> bool
(** [write_sinks ~extra s] writes the stats JSON (with [extra] and,
    under a profile sink, the hot-method table appended), the
    collapsed-stack profile and the Chrome trace, in that order.  The
    path ["-"] is stdout; every other written path is reported on
    stderr.  A failed write is reported as [error: …] and the others
    are still attempted; the result is [false] when any failed. *)

(** {1 Shared run plumbing} *)

val drain_store_diags : unit -> unit
(** print the summary store's pending diagnostics to stderr *)

val cancel_on_signals : unit -> unit
(** make SIGINT and SIGTERM cancel every budget cooperatively
    ({!Fd_resilience.Budget.cancel_all}) *)
