(** RQ3: corpus analysis — runtimes and leak statistics over the
    generated Play-profile and malware-profile corpora, reported the
    way Section 6.3 does (average/min/max runtime, leaks per app). *)

open Fd_core
module Table = Fd_util.Table

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

(** [run ?jobs ~profile ~seed ~n ()] generates and analyses a corpus.
    Each app runs under the crash barrier with one degraded retry, so
    one hostile app cannot abort the batch.  [jobs] fans the per-app
    loop out over that many domains ({!Fd_util.Pool.map}); per-app
    times are wall-clock, so they stay meaningful under parallelism
    (CPU time would aggregate all workers). *)
let run ?(config = Config.default) ?jobs ~profile ~seed ~n () =
  let apps = Fd_appgen.Generator.corpus ~profile ~seed n in
  (* no per-app [Metrics.reset]/[Trace.reset] here: a global reset
     under [Pool] fan-out clobbers every concurrent app's baseline.
     The registry stays process-cumulative, so concurrent apps count
     into the same totals; an app's own work counts are in its
     result's stats record ([st_propagations], [st_reachable]) *)
  let stats =
    Fd_util.Pool.map ?jobs
      (fun (ga : Fd_appgen.Generator.gen_app) ->
        let t0 = Unix.gettimeofday () in
        let { Engines.pr_findings = findings; pr_outcome = outcome; _ } =
          Engines.run_protected
            (Engines.flowdroid ~config ~name:ga.Fd_appgen.Generator.ga_name ())
            ga.Fd_appgen.Generator.ga_apk
        in
        let t1 = Unix.gettimeofday () in
        let v =
          Scoring.score ~expected:ga.Fd_appgen.Generator.ga_expected ~findings
        in
        {
          as_name = ga.Fd_appgen.Generator.ga_name;
          as_classes = ga.Fd_appgen.Generator.ga_classes;
          as_time = t1 -. t0;
          as_findings = List.length findings;
          as_expected = List.length ga.Fd_appgen.Generator.ga_expected;
          as_found_expected = v.Scoring.tp;
          as_outcome = outcome;
        })
      apps
  in
  { c_profile = profile; c_stats = stats }

(** [outcome_distribution t] counts apps per termination state. *)
let outcome_distribution t =
  Fd_resilience.Outcome.tally
    (List.map (fun s -> (s.as_outcome, false)) t.c_stats)

type summary = {
  s_apps : int;
  s_avg_time : float;
  s_min_time : float;
  s_max_time : float;
  s_leaks_per_app : float;
  s_recall : float;  (** on planted ground truth *)
  s_avg_classes : float;
}

(** [summarize t] aggregates the per-app statistics. *)
let summarize t =
  let n = List.length t.c_stats in
  let fn = float_of_int (max n 1) in
  let times = List.map (fun s -> s.as_time) t.c_stats in
  let total_found = List.fold_left (fun a s -> a + s.as_findings) 0 t.c_stats in
  let total_exp = List.fold_left (fun a s -> a + s.as_expected) 0 t.c_stats in
  let total_tp =
    List.fold_left (fun a s -> a + s.as_found_expected) 0 t.c_stats
  in
  {
    s_apps = n;
    s_avg_time = List.fold_left ( +. ) 0.0 times /. fn;
    s_min_time = List.fold_left min infinity times;
    s_max_time = List.fold_left max 0.0 times;
    s_leaks_per_app = float_of_int total_found /. fn;
    s_recall =
      (if total_exp = 0 then 1.0
       else float_of_int total_tp /. float_of_int total_exp);
    s_avg_classes =
      List.fold_left (fun a s -> a + s.as_classes) 0 t.c_stats
      |> float_of_int |> fun x -> x /. fn;
  }

(** [render t] prints the corpus summary in the paper's reporting
    style. *)
let render t =
  let s = summarize t in
  let profile = Fd_appgen.Generator.string_of_profile t.c_profile in
  Table.render
    (Table.make
       ~header:[ Printf.sprintf "RQ3 corpus: %s" profile; "value" ]
       [
         Table.Row [ "apps analysed"; string_of_int s.s_apps ];
         Table.Row [ "avg classes/app"; Printf.sprintf "%.1f" s.s_avg_classes ];
         Table.Row [ "avg runtime"; Printf.sprintf "%.4f s" s.s_avg_time ];
         Table.Row [ "min runtime"; Printf.sprintf "%.4f s" s.s_min_time ];
         Table.Row [ "max runtime"; Printf.sprintf "%.4f s" s.s_max_time ];
         Table.Row
           [ "reported leaks per app"; Printf.sprintf "%.2f" s.s_leaks_per_app ];
         Table.Row
           [ "recall on planted leaks"; Printf.sprintf "%.0f%%" (100. *. s.s_recall) ];
         Table.Row
           [ "outcomes";
             String.concat ", "
               (List.map
                  (fun (k, n) -> Printf.sprintf "%s: %d" k n)
                  (outcome_distribution t)) ];
       ])
