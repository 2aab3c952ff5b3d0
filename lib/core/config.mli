(** Engine configuration: FlowDroid's defaults plus the ablation
    switches the benchmark harness sweeps (DESIGN.md experiments
    A1–A3, F3, L3). *)

(** The opt-in precision pass suite (DESIGN.md, precision passes).
    Every field defaults to [false]; all-flags-off output is
    bit-identical to the faithful Table 1 reproduction. *)
type precision = {
  must_alias : bool;
      (** flow-sensitive must-alias analysis enabling strong updates:
          a field write through a must-aliased base kills the old
          taint (Button2-class FPs) *)
  array_index : bool;
      (** constant-index array cells as access-path pseudo-fields,
          widening to the whole-array summary on non-constant indices
          (ArrayAccess1/ListAccess1-class FPs) *)
  reflection : bool;
      (** constant-string reflection resolution:
          [Class.forName]/[getMethod]/[invoke] chains with
          string-constant arguments get real call edges *)
  clinit : bool;
      (** first-use-site [<clinit>] placement instead of
          program-start modelling (StaticInitialization1-class FNs) *)
}

val no_precision : precision
(** all passes off — the paper-faithful default *)

val all_precision : precision
(** every pass on *)

val precision_enabled : precision -> bool
(** at least one pass on *)

val string_of_precision : precision -> string
(** "none", "all", or the comma-separated enabled passes *)

val precision_of_string : string -> (precision, string) result
(** parse "all"/"none" or a comma-separated subset of
    must-alias, array-index, reflection, clinit *)

type t = {
  max_access_path : int;
      (** maximal access-path length [k]; the paper's default is 5 *)
  lifecycle : bool;
      (** model the component lifecycle via the dummy main; when off,
          each lifecycle/callback method is analysed as an isolated
          entry point (the comparator-tool behaviour) *)
  callbacks : bool;  (** discover and include callbacks *)
  per_component_callbacks : bool;
      (** associate callbacks with their owning component (paper
          default); off = all callbacks attached to every component *)
  context_injection : bool;
      (** inject the forward context into spawned backward searches
          (Figure 3); off = the naive 0-rooted handover *)
  activation_statements : bool;
      (** flow-sensitive alias activation (Listing 3); off = aliases
          are born active, i.e. Andromeda-style flow-insensitivity *)
  alias_search : bool;
      (** run the on-demand backward alias analysis at all *)
  cg_algorithm : Fd_callgraph.Callgraph.algorithm;
  max_propagations : int;
      (** safety valve on solver work (path-edge budget); analyses of
          generated corpora are bounded, mirroring FlowDroid's
          timeouts *)
  deadline_s : float option;
      (** wall-clock deadline for the solve, in seconds; [None] =
          unlimited.  Checked cooperatively inside the worklist loops;
          expiry yields a [Deadline_exceeded] outcome with partial
          results rather than an abort. *)
  precision : precision;
      (** the opt-in precision pass suite; {!no_precision} (the
          default) reproduces the paper's documented imprecisions *)
  provenance : bool;
      (** record provenance edges during the solve and attach witness
          paths to findings ([--explain]); off by default — with it
          off the solver output is byte-identical to a run without
          this feature compiled in *)
  profile : bool;
      (** attribute worklist pops, facts and time to methods in the
          per-method profiler ([--profile-out]) *)
  summary_store : string option;
      (** directory of the persistent cross-app summary store
          ([--summary-store DIR]); [None] (the default) disables the
          store entirely — output is byte-identical to a build without
          the store compiled in *)
  targeted : string list;
      (** demand-driven targeted mode ([--targeted SIG]): sink
          signature patterns (substring match on ["Class.method"],
          supertypes included).  When non-empty the analysis slices
          backward from matching sink invoke sites, extends the call
          graph only along the slice and reports only flows into
          matching sinks.  [[]] (the default) runs the full analysis
          with byte-identical output to a build without this mode. *)
  icc : bool;
      (** the ICC link-resolution tier ([--icc]): resolve intent send
          sites against manifest intent filters (IccTA-style), replace
          resolved intent-send sink findings with stitched end-to-end
          source→sink flows into the receiving component, report
          tainted [setResult] payloads handed to external callers, and
          surface the exported-component attack surface.  [false] (the
          default) keeps the paper's over-approximation — send = sink,
          reception = source — with byte-identical output. *)
}

val default : t
(** The configuration the paper evaluates: k = 5, full lifecycle and
    callback modelling, context injection and activation statements
    on, CHA call graphs, no deadline. *)

(** {1 The canonical encoding}

    One key and one JSON value per field of {!t}, shared by the store's
    config digest and the serve protocol's request options. *)

(** How a field enters the summary store's config digest. *)
type store_key =
  | Keys_summaries
      (** changes what a method summary means; rendered before the
          rule-set digests *)
  | Keys_findings
      (** leaves summaries alone but changes which findings a run
          reports; rendered after the rule-set digests, so hot entries
          never cross between modes *)
  | Unkeyed  (** the reason sits beside the field in [encode] *)

type field = { key : string; value : Fd_obs.Json.t; store : store_key }

val encode : t -> field list
(** every field of the config, in digest order: the
    [Keys_summaries] fields, then [Keys_findings], then [Unkeyed] *)

val decode : t -> (string * Fd_obs.Json.t) list -> (t, string) result
(** [decode base options] applies [options] to [base] in order.  An
    unknown key, a value of the wrong type or [k < 1] is an [Error]
    naming the key.  [decode c (List.map (fun f -> (f.key, f.value))
    (encode c'))] is [Ok c'] for any [c]. *)

val budget : ?chaos:Fd_resilience.Chaos.t -> t -> Fd_resilience.Budget.t
(** a fresh budget with the config's [deadline_s] (from now) and
    [max_propagations] *)

val degradation_ladder : t -> (string * t) list
(** [(label, config)] rungs for the fallback driver: the original
    config, then [k = 3], [k = 1], and [k = 1] with the alias search
    off — each strictly cheaper than the last (already-cheap bases
    yield shorter ladders). *)
