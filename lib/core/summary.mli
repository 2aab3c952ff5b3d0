(** Persistent summary support (DESIGN.md §13).

    Stable, intern-order-independent structural encodings of the
    solver's facts; content-addressed transitive method digests;
    the analysis-config digest; and the store hooks through which the
    solver's store extension ({!Ext_store}) reuses end summaries
    across processes.  The
    on-disk backend lives in the separate [fd_store] library and
    registers through {!provider} — with no backend linked (or
    [Config.summary_store = None]) every hook constructor returns
    [None] and the engine is byte-identical to a store-free build. *)

open Fd_callgraph
module Json = Fd_obs.Json
module SS = Fd_frontend.Sourcesink

val format_version : int
(** bumped on any change to the canonical encoding; part of both the
    config digest and the on-disk entry header *)

exception Decode_error of string
(** raised by the [dec_*] family on malformed input; hook code turns
    it into a store miss plus a diagnostic, never a crash *)

(** {1 Canonical structural encoding}

    Stable across independent intern pools, processes and machines:
    facts are encoded by names, types and statement coordinates, never
    by intern ids. *)

val enc_fact : entry_source:Taint.source_info option -> Taint.fact -> Json.t
(** [entry_source] marks the caller-carried source: a fact source
    equal to it encodes as the position-independent ["entry"]
    placeholder *)

val dec_fact : entry_source:Taint.source_info option -> Json.t -> Taint.fact
(** inverse of {!enc_fact}; the ["entry"] placeholder resolves to
    [entry_source].  Decoded facts carry no derivation links, and an
    active fact carries no activation statement even when its encoding
    names one. *)

(** {1 Sink reports} *)

(** a leak detected inside a summarised subtree; stored with the
    summary edges and replayed on every hit, so skipping the subtree
    never loses a verdict *)
type sink_report = {
  sr_source : Taint.source_info;
  sr_sink : Icfg.node;
  sr_tag : string option;
  sr_cat : SS.category;
}

val report_key : sink_report -> string
(** dedup key, aligned with the engine's finding dedup *)

(** {1 Context keys} *)

val eligible_entry : Taint.fact -> bool
(** zero or active — the only entry shapes whose summaries are
    position-independent (an inactive entry's activation statement lies
    in the caller) *)

(** {1 Digests} *)

val config_digest :
  config:Config.t ->
  sources:SS.t ->
  wrappers:Fd_frontend.Rules.t ->
  natives:Fd_frontend.Rules.t ->
  string
(** MD5 hex over every input that changes what a summary means: the
    format version, the keyed fields of {!Config.encode} (k-limit,
    precision passes, call-graph algorithm, flow-sensitivity switches,
    then after the rule-set digests the targeted sink set and the ICC
    tier) and the three rule-set digests.  Each unkeyed field carries
    its reason beside it in {!Config.encode}. *)

type method_entry = {
  me_digest : string;
      (** transitive Merkle body digest over the SCC condensation *)
  me_eligible : bool;
      (** false when the subtree contains a layout-dependent UI
          source *)
}

(** {1 Store hooks} *)

(** what a store hit injects in place of descending into a callee *)
type injection = {
  inj_summaries : (int * Taint.fact) list;
      (** (exit statement index, decoded exit fact) *)
  inj_reports : sink_report list;  (** sources already substituted *)
}

(** one solved context of a method, as handed to {!hooks.h_persist} *)
type persist_context = {
  pc_entry : Taint.fact;
  pc_summaries : (int * Taint.fact) list;
  pc_reports : sink_report list;
}

type hooks = {
  h_eligible : Mkey.t -> bool;
  h_lookup : callee:Mkey.t -> entry:Taint.fact -> injection option;
  h_persist : callee:Mkey.t -> persist_context list -> unit;
}

(** {1 Backend provider} *)

(** the raw storage interface [fd_core] programs against; backends own
    framing, checksums, atomicity and merging, and must degrade to
    misses (never raise) on damaged entries *)
type backend = {
  be_load : method_digest:string -> Json.t option;
  be_store : method_digest:string -> payload:Json.t -> unit;
  be_diag : Fd_resilience.Diag.t -> unit;
}

val provider : (dir:string -> config_digest:string -> backend option) ref
(** set by [Fd_store.install ()] *)

val make_hooks :
  icfg:Icfg.t ->
  config:Config.t ->
  sources:SS.t ->
  wrappers:Fd_frontend.Rules.t ->
  natives:Fd_frontend.Rules.t ->
  hooks option
(** build the solver hooks for one run; [None] when the store is
    disabled, the config is one the store cannot replay (a
    flow-sensitivity switch off its paper default, provenance,
    first-use [<clinit>] placement or the ICC tier), or no backend is
    installed.  Digests every reachable method once. *)
