(** The per-method solver profiler.

    Attributes worklist pops, created path edges ("facts") and
    monotonic wall time to the method being processed, in both solver
    loops.  The registry is process-global and domain-safe (atomic
    cells), mirroring {!Metrics}: the solver's profiler extension
    resolves a {!cell} handle once per program point and caches it, so
    the profiled hot path costs atomic updates and two clock reads per
    pop.

    Profiling is opt-in ({!Fd_core.Config.t.profile} /
    [--profile-out]); with it off the solvers never call into this
    module. *)

type cell
(** accumulator for one method *)

val cell : string -> cell
(** [cell name] is the accumulator for method [name], registered on
    first use (same-name calls return the same cell) *)

val now : unit -> float
(** a wall-clock timestamp in seconds, for timing pops (re-exported
    here so profiled libraries need no [unix] dependency of their
    own) *)

val add_pop : cell -> seconds:float -> unit
(** account one worklist pop and its processing time *)

val add_fact : cell -> unit
(** account one path edge created at a node of this method *)

val reset : unit -> unit
(** drop every cell (per-run isolation, like {!Metrics.reset}) *)

type entry = {
  e_name : string;
  e_pops : int;
  e_facts : int;
  e_seconds : float;
}

val entries : unit -> entry list
(** all methods, hottest (most time) first; ties by name so the order
    is deterministic *)

val top : k:int -> entry list
(** the [k] hottest methods *)

val enabled : unit -> bool
(** whether any cell has been registered since the last reset (i.e. a
    profiled run happened) *)

val to_json : ?k:int -> unit -> Json.t
(** the top-[k] (default 20) hot-method table:
    [[{"method", "pops", "facts", "seconds"}, …]] *)

val collapsed : unit -> string
(** the profile in collapsed-stack format
    (["flowdroid;<method> <microseconds>"] per line), rendering
    directly in flamegraph.pl, inferno or speedscope *)

val write_collapsed : path:string -> unit
(** write {!collapsed} to [path], or to stdout when [path] is ["-"] *)
