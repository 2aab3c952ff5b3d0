(** The analysis driver: Figure 4's pipeline.

    [parse manifest] → [parse layout XMLs] → [parse code] →
    [source/sink/entry-point detection] → [generate dummy main] →
    [build call graph] → [perform taint analysis].

    Two entry modes exist: {!analyze_merged} runs the full Android
    pipeline over one app or several sharing one merged Scene;
    {!analyze_plain} analyses ordinary Java-style programs with
    explicitly given entry points (SecuriBench Micro, the paper's
    listings — RQ4's "nothing precludes applying FlowDroid to Java"). *)

open Fd_ir
open Fd_callgraph
module FW = Fd_frontend.Framework

type stats = {
  st_time : float;  (** analysis wall time, seconds *)
  st_reachable : int;  (** reachable methods in the final call graph *)
  st_cg_edges : int;
  st_propagations : int;  (** path-edge propagations of both solvers *)
  st_outcome : Fd_resilience.Outcome.t;
      (** typed termination state; anything but [Complete] means the
          findings are a partial under-approximation *)
  st_metrics : Fd_obs.Metrics.snapshot;
      (** registry snapshot taken when the run finished (counters are
          process-cumulative; reset before the run for per-run
          numbers) *)
}

type result = {
  r_findings : Bidi.finding list;
  r_entries : Mkey.t list;
  r_stats : stats;
  r_engine : Bidi.t;  (** for inspection (per-node taints) *)
  r_icfg : Icfg.t;
  r_diags : Fd_resilience.Diag.t list;
      (** frontend diagnostics (lenient-mode skips); [[]] in strict
          mode *)
  r_icc : Icc.report option;
      (** the ICC resolver's report when the {!Config.t.icc} tier ran
          (its findings are already merged into [r_findings]) *)
}

type phase_hook = string -> unit
(** called with a phase name as the pipeline advances (used by the
    pipeline-trace example) *)

let no_hook : phase_hook = fun _ -> ()

let log_src = Logs.Src.create "flowdroid" ~doc:"FlowDroid analysis pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* run latency histograms: real samples for the log-scale buckets *)
let h_analysis = Fd_obs.Metrics.histogram "core.analysis_seconds"
let h_solve = Fd_obs.Metrics.histogram "ifds.solve_seconds"

(* which opt-in precision passes the run used, visible in --stats-json *)
let g_prec_must_alias = Fd_obs.Metrics.gauge "precision.must_alias"
let g_prec_array_index = Fd_obs.Metrics.gauge "precision.array_index"
let g_prec_reflection = Fd_obs.Metrics.gauge "precision.reflection"
let g_prec_clinit = Fd_obs.Metrics.gauge "precision.clinit"

let record_precision (p : Config.precision) =
  let b g v = Fd_obs.Metrics.set_int g (if v then 1 else 0) in
  b g_prec_must_alias p.Config.must_alias;
  b g_prec_array_index p.Config.array_index;
  b g_prec_reflection p.Config.reflection;
  b g_prec_clinit p.Config.clinit

(* targeted-mode entry metrics *)
let g_entries_kept = Fd_obs.Metrics.gauge "targeted.entries_kept"
let g_entries_dropped = Fd_obs.Metrics.gauge "targeted.entries_dropped"

(** [restrict_findings ~icfg ~patterns findings] keeps the findings
    whose sink invoke site matches one of the targeted patterns — the
    projection targeted mode applies to its own output, exported so
    the verdict-identity gate can apply the {e same} projection to a
    full-mode run before comparing. *)
let restrict_findings ~icfg ~patterns findings =
  let scene = Callgraph.cg_scene icfg.Icfg.cg in
  List.filter
    (fun (f : Bidi.finding) ->
      match Icfg.invoke icfg f.Bidi.f_sink_node with
      | Some inv -> Ondemand.invoke_matches scene ~patterns inv
      | None -> false)
    findings

let run_engine ?(config = Config.default) ?(phase = no_hook) ?budget
    ?(diags = []) ~scene ~mgr ~wrappers ~natives ~entries () =
  Fd_obs.Metrics.time h_analysis @@ fun () ->
  record_precision config.Config.precision;
  let t0 = Sys.time () in
  Log.debug (fun m ->
      m "analysis starting with %d entry point(s)" (List.length entries));
  (* demand-driven targeted mode: text-index the scene for matching
     sink sites and keep only the entry points inside the backward
     slice.  Building the call graph from those entries alone IS the
     on-the-fly extension: edges are discovered along the slice and
     nowhere else.  With [targeted = []] (the default) none of this
     runs and the output is byte-identical to previous releases. *)
  let slice =
    match config.Config.targeted with
    | [] -> None
    | patterns ->
        phase "targeted sink search";
        Some (Ondemand.compute scene ~patterns)
  in
  let entries =
    match slice with
    | None -> entries
    | Some sl ->
        let kept, dropped = List.partition (Ondemand.mem sl) entries in
        Fd_obs.Metrics.set_int g_entries_kept (List.length kept);
        Fd_obs.Metrics.set_int g_entries_dropped (List.length dropped);
        Log.debug (fun m ->
            m "targeted slice: %d/%d methods, %d sink site(s), %d/%d entries kept"
              (Ondemand.sliced_methods sl)
              (Ondemand.total_methods sl)
              (Ondemand.sink_sites sl) (List.length kept)
              (List.length kept + List.length dropped));
        kept
  in
  phase "build call graph";
  let cg =
    Callgraph.build scene ~entry:entries ~algorithm:config.Config.cg_algorithm
      ~clinit_first_use:config.Config.precision.Config.clinit
      ~reflection:config.Config.precision.Config.reflection ()
  in
  let icfg = Icfg.create cg in
  phase "perform taint analysis";
  (* persistent summary store: hooks resolve to [None] unless
     [config.summary_store] is set, the config is store-compatible and
     a backend library is linked — the solver is then untouched *)
  let store =
    Summary.make_hooks ~icfg ~config ~sources:(Srcsink_mgr.defs mgr) ~wrappers
      ~natives
  in
  let engine =
    Bidi.create ?budget ?store ~config ~icfg ~scene ~mgr ~wrappers
      ~natives ()
  in
  Fd_obs.Trace.with_span "taint.solve" (fun () ->
      Fd_obs.Metrics.time h_solve (fun () -> Bidi.run engine ~entries));
  let t1 = Sys.time () in
  let outcome = Bidi.outcome engine in
  let diags =
    if Fd_resilience.Outcome.is_complete outcome then diags
    else begin
      Log.warn (fun m ->
          m "solve stopped early (%s): results may be incomplete"
            (Fd_resilience.Outcome.to_string outcome));
      (* attach the solve's post-mortem: what the solver was doing
         when the budget tripped *)
      diags
      @ [
          Fd_resilience.Diag.make ~file:"flight-recorder"
            (Printf.sprintf "%s: %s"
               (Fd_resilience.Outcome.to_string outcome)
               (Bidi.post_mortem engine));
        ]
    end
  in
  (* targeted mode only reports flows into the targeted sinks; other
     rule-set sinks inside the slice are analysed (the worklists don't
     know which sink a fact will reach) but projected out here *)
  let findings =
    match slice with
    | None -> Bidi.findings engine
    | Some sl ->
        restrict_findings ~icfg ~patterns:(Ondemand.patterns sl)
          (Bidi.findings engine)
  in
  Log.debug (fun m ->
      m "done: %d finding(s), %d propagations, %.4fs"
        (List.length findings)
        (Bidi.propagation_count engine)
        (t1 -. t0));
  {
    r_findings = findings;
    r_entries = entries;
    r_stats =
      {
        st_time = t1 -. t0;
        st_reachable = List.length (Callgraph.reachable_methods cg);
        st_cg_edges = Callgraph.edge_count cg;
        st_propagations = Bidi.propagation_count engine;
        st_outcome = outcome;
        st_metrics = Fd_obs.Metrics.snapshot ();
      };
    r_engine = engine;
    r_icfg = icfg;
    r_diags = diags;
    r_icc = None;
  }

(** [android_entries ~config loaded] computes the entry points for an
    Android app: with lifecycle modelling on, the generated dummy
    main; with it off, every lifecycle and callback method as an
    isolated entry (the comparator-tool behaviour). *)
let android_entries ~(config : Config.t) ~phase
    (loaded : Fd_frontend.Apk.loaded) =
  Fd_obs.Trace.with_span "lifecycle.entrypoints" @@ fun () ->
  phase "source, sink and entry-point detection";
  let ccs =
    if config.Config.callbacks then Fd_lifecycle.Callbacks.discover_all loaded
    else
      (* callbacks off: lifecycle methods only *)
      List.map
        (fun (c : Fd_frontend.Manifest.component) ->
          Fd_lifecycle.Callbacks.
            {
              cc_component = c.Fd_frontend.Manifest.comp_class;
              cc_app =
                Fd_frontend.Apk.app_name loaded
                  c.Fd_frontend.Manifest.comp_class;
              cc_kind = c.Fd_frontend.Manifest.comp_kind;
              cc_lifecycle =
                Fd_lifecycle.Lifecycle.implemented_methods
                  loaded.Fd_frontend.Apk.scene
                  c.Fd_frontend.Manifest.comp_class
                  c.Fd_frontend.Manifest.comp_kind
                |> List.map (fun (decl, m) -> Mkey.of_method decl m);
              cc_callbacks = [];
              cc_listener_classes = [];
              cc_async_tasks = [];
              cc_fragments = [];
            })
        loaded.Fd_frontend.Apk.components
  in
  let ccs =
    if config.Config.per_component_callbacks then ccs
    else begin
      (* ablation: every callback is attached to every component *)
      let all_cbs =
        List.concat_map (fun cc -> cc.Fd_lifecycle.Callbacks.cc_callbacks) ccs
      in
      let all_listeners =
        List.sort_uniq compare
          (List.concat_map
             (fun cc -> cc.Fd_lifecycle.Callbacks.cc_listener_classes)
             ccs)
      in
      List.map
        (fun cc ->
          {
            cc with
            Fd_lifecycle.Callbacks.cc_callbacks =
              List.map
                (fun cb ->
                  {
                    cb with
                    Fd_lifecycle.Callbacks.cb_on_component =
                      cb.Fd_lifecycle.Callbacks.cb_class
                      = cc.Fd_lifecycle.Callbacks.cc_component;
                  })
                all_cbs;
            Fd_lifecycle.Callbacks.cc_listener_classes =
              List.sort_uniq compare
                (all_listeners
                @ List.filter_map
                    (fun cb ->
                      if
                        cb.Fd_lifecycle.Callbacks.cb_class
                        <> cc.Fd_lifecycle.Callbacks.cc_component
                      then Some cb.Fd_lifecycle.Callbacks.cb_class
                      else None)
                    all_cbs);
          })
        ccs
    end
  in
  if config.Config.lifecycle then begin
    phase "generate main method";
    [ Fd_lifecycle.Dummy_main.generate loaded.Fd_frontend.Apk.scene ccs ]
  end
  else
    List.concat_map
      (fun cc ->
        cc.Fd_lifecycle.Callbacks.cc_lifecycle
        @ List.map
            (fun cb ->
              Mkey.of_sig
                {
                  cb.Fd_lifecycle.Callbacks.cb_method.Jclass.jm_sig with
                  Types.m_class = cb.Fd_lifecycle.Callbacks.cb_class;
                })
            cc.Fd_lifecycle.Callbacks.cc_callbacks)
      ccs
    |> List.sort_uniq Mkey.compare

(** [load ?phase ?mode apks] is the pipeline's frontend stage: it
    announces Figure 4's three parse phases and loads the app set into
    one merged Scene. *)
let load ?(phase = no_hook) ?mode apks =
  phase "parse manifest file";
  phase "parse layout xmls";
  phase "parse code";
  Fd_frontend.Apk.load_merged ?mode apks

(** [analyze_merged ?config ?defs ?wrappers ?natives ?phase ?budget m]
    is the Android pipeline over a loaded app set — one app, or
    several sharing one merged Scene (the inter-app setting).  The
    dummy main exercises every app's components; with the
    {!Config.t.icc} tier on, the link resolver consults the per-app
    manifests, applies the exported gate across app boundaries, and
    stitches collusion flows into the findings (re-snapshotting the
    metrics so the [icc.*] gauges reach [--stats-json]). *)
let analyze_merged ?(config = Config.default)
    ?(defs = Fd_frontend.Sourcesink.default ())
    ?(wrappers = Fd_frontend.Rules.default_wrappers ())
    ?(natives = Fd_frontend.Rules.default_natives ()) ?(phase = no_hook)
    ?budget (m : Fd_frontend.Apk.merged) =
  let loaded = m.Fd_frontend.Apk.m_loaded in
  let scene = loaded.Fd_frontend.Apk.scene in
  let mgr =
    Srcsink_mgr.create ~scene ~defs ~layout:loaded.Fd_frontend.Apk.layout
  in
  let entries = android_entries ~config ~phase loaded in
  let r =
    run_engine ~config ~phase ?budget ~diags:loaded.Fd_frontend.Apk.diags
      ~scene ~mgr ~wrappers ~natives ~entries ()
  in
  if not config.Config.icc then r
  else begin
    phase "icc link resolution";
    let report =
      Icc.analyze ~icfg:r.r_icfg ~scene ~engine:r.r_engine
        ~provenance:config.Config.provenance ~apps:m.Fd_frontend.Apk.m_apps
        ~app_of:m.Fd_frontend.Apk.m_app_of r.r_findings
    in
    {
      r with
      r_findings = Icc.apply report r.r_findings;
      r_icc = Some report;
      r_stats = { r.r_stats with st_metrics = Fd_obs.Metrics.snapshot () };
    }
  end

(** [analyze_apk ?config ?mode apk] runs the full pipeline from one
    APK bundle; [mode] selects strict (default) or lenient frontend
    parsing. *)
let analyze_apk ?config ?defs ?wrappers ?natives ?phase ?mode ?budget apk =
  analyze_merged ?config ?defs ?wrappers ?natives ?phase ?budget
    (load ?phase ?mode [ apk ])

(** [analyze_plain ?config ~classes ~entries ~defs ()] analyses a
    plain (non-Android) program: [classes] are added to a fresh scene
    with the framework skeleton, [entries] are the explicit entry
    points, [defs] the manually supplied sources and sinks (the
    SecuriBench setup of Section 6.4).  With [~synthetic_main:true]
    the entry points are wrapped in a generated main in which they can
    run in any sequential order — FlowDroid's default entry-point
    creator, needed when flows stage data in static state between
    entry points. *)
let analyze_plain ?(config = Config.default) ?(synthetic_main = false)
    ~classes ~entries
    ?(defs = Fd_frontend.Sourcesink.default ())
    ?(wrappers = Fd_frontend.Rules.default_wrappers ())
    ?(natives = Fd_frontend.Rules.default_natives ()) () =
  let scene = FW.fresh_scene () in
  List.iter (Scene.add_class scene) classes;
  let mgr = Srcsink_mgr.create_plain ~scene ~defs in
  let entries =
    if synthetic_main then
      [ Fd_lifecycle.Dummy_main.generate_plain scene entries ]
    else entries
  in
  run_engine ~config ~scene ~mgr ~wrappers ~natives ~entries ()

(** [warm_templates ()] forces every lazily-built shared template the
    pipeline clones per run — the framework-skeleton scene and the
    default source/sink, taint-wrapper and native rule sets — so a
    long-lived server amortises their construction to exactly one
    payment at startup.  Idempotent and cheap once forced. *)
let warm_templates () =
  Fd_frontend.Framework.warm ();
  ignore (Fd_frontend.Sourcesink.default ());
  ignore (Fd_frontend.Rules.default_wrappers ());
  ignore (Fd_frontend.Rules.default_natives ())

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

module Outcome = Fd_resilience.Outcome

let m_ladder_retries = Fd_obs.Metrics.counter "resilience.ladder_retries"
let m_degraded_runs = Fd_obs.Metrics.counter "resilience.degraded_runs"

type attempt = {
  at_label : string;  (** ladder rung, e.g. ["full"], ["k=3"] *)
  at_outcome : Outcome.t;
  at_findings : int;
  at_time : float;
}

type completeness =
  | Precise  (** the first rung completed: full-precision results *)
  | Degraded of string  (** completed at the named cheaper rung *)
  | Partial of string
      (** no rung completed; results are the named rung's partial
          under-approximation *)

type fallback = {
  fb_result : result;
  fb_attempts : attempt list;  (** in execution order *)
  fb_completeness : completeness;
}

exception Fallback_failed of attempt list
(** every ladder rung crashed without producing any result *)

let string_of_completeness = function
  | Precise -> "precise"
  | Degraded label -> "degraded(" ^ label ^ ")"
  | Partial label -> "partial(" ^ label ^ ")"

(** [with_fallback ~config run] drives [run] down the degradation
    ladder: the base config first, then progressively cheaper rungs
    ([k] 5→3→1, then no alias search) until one completes — mirroring
    how FlowDroid trades precision for termination under a timeout.
    An incomplete or crashed rung triggers the next one; when no rung
    completes, the last rung that produced {e any} result is returned
    with a [Partial] marker.
    @raise Fallback_failed when every rung crashed. *)
let with_fallback ~(config : Config.t) (run : label:string -> Config.t -> result)
    =
  let ladder = Config.degradation_ladder config in
  (* flight-recorder diagnostics of earlier rungs, kept so the final
     report explains *why* the ladder stepped down; each degraded rung
     attached its own post-mortem in [run_engine], each crashed rung's
     is built here from its [Crashed] message *)
  let flight_diags result =
    List.filter
      (fun d -> String.equal d.Fd_resilience.Diag.d_file "flight-recorder")
      result.r_diags
  in
  let stash_best stash best =
    match best with
    | Some (_, prev) -> stash @ flight_diags prev
    | None -> stash
  in
  let with_stash stash result =
    if stash = [] then result
    else { result with r_diags = result.r_diags @ stash }
  in
  let rec go attempts best stash = function
    | [] -> (
        match best with
        | Some (label, result) ->
            Fd_obs.Metrics.incr m_degraded_runs;
            {
              fb_result = with_stash stash result;
              fb_attempts = List.rev attempts;
              fb_completeness = Partial label;
            }
        | None -> raise (Fallback_failed (List.rev attempts)))
    | (label, cfg) :: rest -> (
        if attempts <> [] then Fd_obs.Metrics.incr m_ladder_retries;
        let t0 = Sys.time () in
        match
          Fd_resilience.Barrier.protect ~label (fun () -> run ~label cfg)
        with
        | Ok result ->
            let at =
              {
                at_label = label;
                at_outcome = result.r_stats.st_outcome;
                at_findings = List.length result.r_findings;
                at_time = Sys.time () -. t0;
              }
            in
            if Outcome.is_complete result.r_stats.st_outcome then begin
              let attempts = List.rev (at :: attempts) in
              if List.length attempts > 1 then
                Fd_obs.Metrics.incr m_degraded_runs;
              {
                fb_result = with_stash (stash_best stash best) result;
                fb_attempts = attempts;
                fb_completeness =
                  (if List.length attempts = 1 then Precise
                   else Degraded label);
              }
            end
            else
              (* keep the partial result in case no rung completes;
                 later rungs overwrite earlier ones (they got further
                 through their cheaper state space) — but the replaced
                 rung's flight dump survives in the stash *)
              go (at :: attempts)
                (Some (label, result))
                (stash_best stash best) rest
        | Error outcome ->
            let at =
              {
                at_label = label;
                at_outcome = outcome;
                at_findings = 0;
                at_time = Sys.time () -. t0;
              }
            in
            (* the [Crashed] message carries the solve's post-mortem
               when the crash escaped a solve *)
            let stash =
              stash
              @ [
                  Fd_resilience.Diag.make ~file:"flight-recorder"
                    (Outcome.to_string outcome);
                ]
            in
            go (at :: attempts) best stash rest)
  in
  go [] None [] ladder

(** [analyze_with_fallback ?config ?mode apks] is the pipeline over
    an app set under the degradation ladder: when a run exhausts its
    budget or crashes, it is retried under progressively cheaper
    configs and the final report carries a completeness marker.  The
    apps are loaded once; every rung analyses the same Scene.
    @raise Fd_frontend.Apk.Load_error when the (strict-mode) frontend
    rejects the app set;
    @raise Fallback_failed when every ladder rung crashed. *)
let analyze_with_fallback ?(config = Config.default) ?defs ?wrappers ?natives
    ?phase ?mode ?chaos apks =
  let m = load ?phase ?mode apks in
  with_fallback ~config (fun ~label:_ cfg ->
      analyze_merged ~config:cfg ?defs ?wrappers ?natives ?phase
        ~budget:(Config.budget ?chaos cfg) m)
