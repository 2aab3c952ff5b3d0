(** The engines compared in the evaluation: FLOWDROID (this
    repository's core), the two simulated commercial comparators, and
    the FlowDroid ablation variants used by the benchmark harness. *)

open Fd_core

type run = Scoring.finding list * Fd_resilience.Outcome.t

type t = {
  eng_name : string;
  eng_run : Fd_frontend.Apk.t -> run;
  eng_degraded : (Fd_frontend.Apk.t -> run) option;
      (** cheapest-rung variant, used as the barrier's one retry *)
}

let findings_of_result (r : Infoflow.result) : Scoring.finding list =
  List.map
    (fun (fd : Bidi.finding) ->
      (fd.Bidi.f_source.Taint.si_tag, fd.Bidi.f_sink_tag))
    r.Infoflow.r_findings

let run_of_result (r : Infoflow.result) : run =
  (findings_of_result r, r.Infoflow.r_stats.Infoflow.st_outcome)

(* the last rung of the degradation ladder for [config] *)
let degraded_config config =
  match List.rev (Config.degradation_ladder config) with
  | (_, c) :: _ -> c
  | [] -> config

(** [flowdroid ?config ?name ()] wraps the core engine. *)
let flowdroid ?(config = Config.default) ?(name = "FlowDroid") () =
  let analyze config apk = run_of_result (Infoflow.analyze_apk ~config apk) in
  {
    eng_name = name;
    eng_run = analyze config;
    eng_degraded = Some (analyze (degraded_config config));
  }

(* a comparator baseline always runs to completion *)
let baseline name run =
  {
    eng_name = name;
    eng_run = (fun apk -> (run apk, Fd_resilience.Outcome.Complete));
    eng_degraded = None;
  }

(** [appscan] — the AppScan-Source-like comparator. *)
let appscan = baseline "AppScan" Fd_baselines.Simple_taint.run_appscan

(** [fortify] — the Fortify-SCA-like comparator. *)
let fortify = baseline "Fortify" Fd_baselines.Simple_taint.run_fortify

(** {2 Crash-isolated runs} *)

type protected_result = {
  pr_findings : Scoring.finding list;  (** [[]] when every attempt crashed *)
  pr_outcome : Fd_resilience.Outcome.t;
      (** the outcome of the run that supplied the findings, or the
          first attempt's [Crashed] when every attempt crashed *)
  pr_degraded : bool;  (** the findings came from the degraded retry *)
}

(** [protect ~label ?retry run] runs [run] under the exception
    barrier; when it crashes, [retry] gets one more chance.  Never
    raises. *)
let protect ~label ?retry run =
  let attempt degraded run () = (run (), degraded) in
  let res =
    match retry with
    | None -> Fd_resilience.Barrier.protect ~label (attempt false run)
    | Some retry ->
        Fd_resilience.Barrier.protect_with_retry ~label (attempt false run)
          ~retry:(attempt true retry)
  in
  match res with
  | Ok ((pr_findings, pr_outcome), pr_degraded) ->
      { pr_findings; pr_outcome; pr_degraded }
  | Error first ->
      { pr_findings = []; pr_outcome = first; pr_degraded = Option.is_some retry }

(** [run_protected e apk] runs [e] under the exception barrier; when
    the primary run crashes and the engine has a degraded variant, it
    gets one retry.  Never raises. *)
let run_protected (e : t) apk =
  protect ~label:e.eng_name
    ?retry:(Option.map (fun run () -> run apk) e.eng_degraded)
    (fun () -> e.eng_run apk)

(** Ablations of the FlowDroid engine (DESIGN.md experiments). *)
let ablations =
  [
    flowdroid ~name:"FD-noLifecycle"
      ~config:{ Config.default with Config.lifecycle = false } ();
    flowdroid ~name:"FD-noCallbacks"
      ~config:{ Config.default with Config.callbacks = false } ();
    flowdroid ~name:"FD-noCtxInjection"
      ~config:{ Config.default with Config.context_injection = false } ();
    flowdroid ~name:"FD-noActivation"
      ~config:{ Config.default with Config.activation_statements = false } ();
    flowdroid ~name:"FD-noAlias"
      ~config:{ Config.default with Config.alias_search = false } ();
    flowdroid ~name:"FD-globalCallbacks"
      ~config:{ Config.default with Config.per_component_callbacks = false } ();
    flowdroid ~name:"FD-RTA"
      ~config:
        { Config.default with
          Config.cg_algorithm = Fd_callgraph.Callgraph.Rta } ();
  ]

(** [k_variant k] — FlowDroid at access-path bound [k] (the A1
    sweep). *)
let k_variant k =
  flowdroid
    ~name:(Printf.sprintf "FD-k%d" k)
    ~config:{ Config.default with Config.max_access_path = k }
    ()
