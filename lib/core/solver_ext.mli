(** The solver-extension record: the fixed set of events {!Bidi}
    reports to its optional features.

    Each feature is one value of {!t}: provenance ({!Ext_provenance}),
    the per-method profiler ({!Ext_profile}) and the persistent summary
    store ({!Ext_store}).
    {!Bidi.create} combines the enabled ones with {!combine}.  A feature
    leaves the events it ignores at {!none}'s no-ops, and {!combine}
    drops no-ops, so the solver pays one indirect call per event and
    allocates nothing for the dispatch itself.

    Hot events carry the solver's interned ids; {!view} turns them back
    into program points and facts off the hot path. *)

open Fd_ir
open Fd_callgraph

(** One step of a provenance witness (see {!Bidi.witness_step}). *)
type witness_step = {
  ws_node : Icfg.node;
  ws_stmt : string;
  ws_fact : string;
  ws_kind : string;
}

(** read access to one engine's interned state *)
type view = {
  node : int -> Icfg.node;  (** node id -> program point *)
  method_id : int -> int;  (** node id -> its method's dense id *)
  stmt : int -> Stmt.t;  (** node id -> its statement *)
  fact : int -> Taint.fact;  (** fact id -> canonical fact *)
  intern : Taint.fact -> int;  (** fact -> fact id, interning it *)
  iter_contexts : (int -> Mkey.t -> Taint.fact -> unit) -> unit;
      (** every context [⟨sp, d1⟩] as (id, method, entry fact), in a
          fixed order *)
  callers : int -> int list;
      (** the caller contexts of a forward callee context, newest
          first *)
  exits : int -> (int * Taint.fact) list;
      (** a forward context's end summaries as (exit statement index,
          fact), newest first *)
}

type t = {
  edge :
    fw:bool -> kind:Fd_obs.Provenance.kind -> node:int -> fact:int -> unit;
      (** a new path edge reached [(node, fact)]; [fw] is false on the
          backward solver's side *)
  pop_begin : fw:bool -> node:int -> fact:int -> unit;
      (** a worklist item is about to be processed *)
  pop_end : unit -> unit;  (** ... and has been *)
  report :
    ctx:int ->
    fresh:bool ->
    source:Taint.source_info ->
    sink:Icfg.node ->
    tag:string option ->
    cat:Fd_frontend.Sourcesink.category ->
    witness_step list;
      (** a sink was reached under context [ctx]; [fresh] when the
          flow is not yet a finding.  Returns the finding's witness,
          [[]] when unknown. *)
  lookup : ctx:int -> callee:Mkey.t -> entry:Taint.fact -> Summary.injection option;
      (** a callee context is about to be seeded: [Some] replaces the
          descent with the given end summaries and reports *)
  finish : complete:bool -> unit;  (** the solve ended *)
}

val none : t
(** ignores every event *)

val combine : t -> t -> t
(** [combine a b] delivers each event to [a], then to [b].  [report]
    returns [a]'s witness unless it is empty, [lookup] asks [b] only on
    [a]'s miss. *)
