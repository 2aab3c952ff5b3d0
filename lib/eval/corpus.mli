(** RQ3: corpus analysis — runtimes and leak statistics over the
    generated Play-profile and malware-profile corpora. *)

type app_stat = {
  as_name : string;
  as_classes : int;
  as_time : float;
  as_findings : int;
  as_expected : int;
  as_found_expected : int;  (** planted leaks that were recovered *)
  as_outcome : Fd_resilience.Outcome.t;
      (** barrier outcome; a crashed app scores zero findings *)
}

type t = {
  c_profile : Fd_appgen.Generator.profile;
  c_stats : app_stat list;
}

val run :
  ?config:Fd_core.Config.t ->
  ?jobs:int ->
  profile:Fd_appgen.Generator.profile ->
  seed:int ->
  n:int ->
  unit ->
  t
(** [jobs] fans the per-app loop out over that many domains
    ({!Fd_util.Pool.map}); results are bit-identical at any job
    count *)

type summary = {
  s_apps : int;
  s_avg_time : float;
  s_min_time : float;
  s_max_time : float;
  s_leaks_per_app : float;
  s_recall : float;  (** on planted ground truth *)
  s_avg_classes : float;
}

val summarize : t -> summary

val render : t -> string
