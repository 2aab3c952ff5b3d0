(** The bidirectional taint solver: Algorithms 1 and 2 of the paper.

    A forward IFDS taint solver interleaved with an on-demand backward
    alias solver, with the paper's two precision mechanisms:
    {e context injection} (a spawned backward edge inherits the forward
    path edge's context [⟨sp, d1⟩], so no facts arise along
    unrealizable paths — Figure 3) and {e activation statements}
    (aliases are born inactive and only activate once the forward
    analysis carries them across the heap write that taints them — or
    across a call whose call tree contains it — Listing 3).

    Both mechanisms, and the alias search itself, can be disabled
    through {!Config.t} for the ablation benchmarks. *)

open Fd_ir
open Fd_callgraph

(** One step of a provenance witness: a program point the derivation
    visited, its statement text, the solver fact holding there, and
    the flow-function kind that derived it from the previous step
    (["seed"], ["source"], ["normal"], ["call"], ["return"],
    ["call-to-return"], ["alias"], ["backward"], ["inject"]). *)
type witness_step = Solver_ext.witness_step = {
  ws_node : Icfg.node;
  ws_stmt : string;
  ws_fact : string;
  ws_kind : string;
}

type finding = {
  f_source : Taint.source_info;
  f_sink_node : Icfg.node;
  f_sink_tag : string option;
  f_sink_cat : Fd_frontend.Sourcesink.category;
  f_path : Icfg.node list;  (** full propagation path, source first *)
  f_witness : witness_step list;
      (** shortest source-to-sink derivation reconstructed from
          provenance edges, source step first and sink step last;
          [[]] unless {!Config.t.provenance} was on *)
}

type t

val create :
  ?budget:Fd_resilience.Budget.t ->
  ?store:Summary.hooks ->
  ?prune_dead:bool ->
  config:Config.t ->
  icfg:Icfg.t ->
  scene:Scene.t ->
  mgr:Srcsink_mgr.t ->
  wrappers:Fd_frontend.Rules.t ->
  natives:Fd_frontend.Rules.t ->
  unit ->
  t
(** [create ~config … ()] builds an engine.  Without [?budget] one is
    derived from the config ([max_propagations] plus [deadline_s]);
    pass an explicit budget to share a deadline across phases or to
    enable cooperative cancellation / chaos injection.

    The engine's optional features are solver extensions
    ({!Solver_ext}), all built here: the flight recorder (always on),
    provenance ({!Config.t.provenance}), the profiler
    ({!Config.t.profile}) and, when [?store] is given, the persistent
    summary store (see {!Summary.make_hooks}): on a store hit a
    callee's stored summaries are installed in place of its descent,
    and after a complete solve freshly solved contexts are persisted
    write-behind.  Absent hooks ⇒ behaviour and output are
    byte-identical to a store-free build.

    [?prune_dead] (default [true]) drops every active forward taint
    whose base local is dead where it lands, except a field path of
    [this] or a parameter (DESIGN §8).  Findings and witnesses are the
    same either way, and {!results_at} loses exactly the dropped
    taints.  [false] keeps the unpruned solver for the tests that
    check this; no option or configuration reaches it. *)

val fresh : ?store:Summary.hooks -> ?prune_dead:bool -> t -> t
(** [fresh t] is a new, unsolved engine over [t]'s ICFG, scene, rules
    and config, with a budget derived from the config and the summary
    store [?store] (none by default): run with the same entries, it
    repeats [t]'s solve, under another [?prune_dead] when given. *)

val run : t -> entries:Mkey.t list -> unit
(** [run t ~entries] seeds the zero fact at each entry method's start
    point and runs both solvers to exhaustion (or to the propagation
    budget). *)

val post_mortem : t -> string
(** [post_mortem t] renders the solve's last events (seeds, worklist
    pops, call edges and return edges, oldest first) and, when the
    budget stopped it, the stop itself.  {!run} hands it to
    {!Fd_resilience.Barrier} with any exception it re-raises. *)

val compare_finding : finding -> finding -> int
(** [compare_finding a b] orders findings by sink node, then source
    node, then source tag.  It is [0] exactly when [a] and [b] report
    the same flow: a sink's tag is a function of its statement. *)

val findings : t -> finding list
(** [findings t] is the reported source-to-sink flows, in
    {!compare_finding} order, whatever order the solver met them
    in. *)

val results_at : t -> Icfg.node -> Taint.t list
(** [results_at t n] is the taints that may hold just before [n]
    (forward-solver facts), each once, newest first by its first
    forward propagation at [n]; [[]] where the solver never reached.
    The ICC tier keeps the first taint it meets per source, so this
    order is part of the contract. *)

val propagation_count : t -> int
(** [propagation_count t] is the number of path-edge propagations
    performed by both solvers (the work metric the benchmarks
    report). *)

val outcome : t -> Fd_resilience.Outcome.t
(** [outcome t] is the typed termination state of the solve:
    [Complete], [Budget_exhausted], [Deadline_exceeded] or
    [Cancelled].  On any state but [Complete] the findings are a
    partial under-approximation. *)
