(** The engines compared in the evaluation: FLOWDROID (this
    repository's core), the two simulated commercial comparators, and
    the ablation variants the benchmark harness sweeps. *)

type run = Scoring.finding list * Fd_resilience.Outcome.t
(** what one run reported, and how it terminated *)

type t = {
  eng_name : string;
  eng_run : Fd_frontend.Apk.t -> run;
  eng_degraded : (Fd_frontend.Apk.t -> run) option;
      (** cheapest-rung variant, used as the barrier's one retry;
          [None] for the comparator baselines, which always run to
          completion *)
}

val findings_of_result : Fd_core.Infoflow.result -> Scoring.finding list

val run_of_result : Fd_core.Infoflow.result -> run
(** the findings and the solver's [st_outcome] *)

val degraded_config : Fd_core.Config.t -> Fd_core.Config.t
(** the last rung of {!Fd_core.Config.degradation_ladder} for a
    config — what the barrier's retry runs under *)

type protected_result = {
  pr_findings : Scoring.finding list;  (** [[]] when every attempt crashed *)
  pr_outcome : Fd_resilience.Outcome.t;
      (** the outcome of the run that supplied the findings (so a run
          stopped by its deadline reads [Deadline_exceeded]), or the
          first attempt's [Crashed] when every attempt crashed *)
  pr_degraded : bool;  (** the findings came from the degraded retry *)
}

val protect :
  label:string -> ?retry:(unit -> run) -> (unit -> run) -> protected_result
(** [protect ~label ?retry run] runs [run] under
    {!Fd_resilience.Barrier}; only a crash triggers [retry], once.
    Never raises. *)

val run_protected : t -> Fd_frontend.Apk.t -> protected_result
(** [run_protected e apk] runs [e] under an exception barrier; when
    the primary run crashes and the engine has a degraded variant, it
    gets one retry.  Never raises. *)

val flowdroid : ?config:Fd_core.Config.t -> ?name:string -> unit -> t
val appscan : t
val fortify : t

val ablations : t list
(** no-lifecycle, no-callbacks, no-context-injection, no-activation,
    no-alias, global-callbacks, RTA *)

val k_variant : int -> t
(** FlowDroid at access-path bound [k] (the A1 sweep) *)
