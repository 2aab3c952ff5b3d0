(** The ICC link resolver (the {!Config.t.icc} tier): EPICC/IccTA-style
    inter-component and inter-app flow stitching.

    An intent constant analysis (driven by
    {!Fd_precision.Const_prop}) abstracts each intent local's
    [setAction] / [setClass] / [setData] / [putExtra] chains; the link
    resolver matches the result against the manifests' intent filters
    with Android's resolution rules (cross-app targets must be
    exported); flow composition stitches sending-side flows to
    reception-sourced flows in the resolved targets, refined per
    constant extra key.  Resolved sends stop being leaks by
    themselves; unresolved sends stay sinks and feed the
    attack-surface report, and tainted [setResult] payloads become
    leaks to the external caller. *)

open Fd_callgraph

type send_site = {
  ss_node : Icfg.node;  (** the startActivity / sendBroadcast call *)
  ss_method : string;  (** the send method's name *)
  ss_descs : Fd_frontend.Manifest.intent_desc list option;
      (** possible intents; [None] = unknown (the send stays a sink) *)
  ss_extras : (string * Icfg.node) list;
      (** constant extra key → the [putExtra] site that wrote it *)
  ss_extras_unknown : bool;
      (** a [putExtra] with non-constant key, or [putExtras] *)
}

type stitched = {
  st_finding : Bidi.finding;  (** the composed end-to-end flow *)
  st_via : Icfg.node;  (** the resolved intent-send site *)
  st_target : string;  (** receiving component class *)
  st_key : string option;  (** matched extra key; [None] = whole intent *)
}

type surface_reason =
  | Unknown_intent  (** the constant analysis could not pin the target *)
  | No_match  (** a known intent no declared component receives *)
  | External of string  (** explicit target class outside the scene *)

type surface_entry = {
  su_node : Icfg.node;
  su_method : string;
  su_reason : surface_reason;
}

val string_of_reason : surface_reason -> string

type report = {
  ic_send_sites : int;
  ic_resolved : int;  (** sites with ≥ 1 in-scene receiving component *)
  ic_stitched : stitched list;
  ic_result_leaks : Bidi.finding list;
      (** tainted [setResult] payloads handed to the external caller *)
  ic_dropped : Bidi.finding list;
      (** resolved send-as-sink findings replaced by stitched flows *)
  ic_surface : surface_entry list;  (** sends that leave the scene *)
  ic_exported : (string * string) list;
      (** the exported attack surface: (app, component class) *)
}

val analyze :
  icfg:Icfg.t ->
  scene:Fd_ir.Scene.t ->
  engine:Bidi.t ->
  provenance:bool ->
  apps:(string * Fd_frontend.Manifest.t) list ->
  app_of:(string -> string option) ->
  Bidi.finding list ->
  report
(** [analyze ~icfg ~scene ~engine ~provenance ~apps ~app_of findings]
    runs the resolver over a solved engine: resolves the send sites
    against [apps]' manifests ([app_of] maps a class to its owning app
    for the exported-across-apps gate), stitches flows (iterating so
    relayed intents A→B→C compose transitively, with per-extra-key
    refinement on the first hop), synthesises [setResult] leaks and
    the attack surface, and records the [icc.*] gauges.  Stitched
    witnesses concatenate the sender's and receiver's witnesses with
    the boundary step re-kinded to ["icc"] (only when [provenance]). *)

val added : report -> Bidi.finding list
(** the findings the tier adds (stitched flows plus [setResult]
    leaks), once each, in {!Bidi.compare_finding} order *)

val apply : report -> Bidi.finding list -> Bidi.finding list
(** the tier-on view of a finding list: base findings minus the
    resolved send-as-sink ones, plus {!added}, in
    {!Bidi.compare_finding} order *)
