(** Table 1 regeneration: run a set of engines over the DROIDBENCH
    suite and render the per-app marker table with the paper's summary
    lines (sums, precision, recall, F-measure). *)

open Fd_droidbench
module Table = Fd_util.Table

type app_result = {
  ar_app : Bench_app.t;
  ar_verdicts : (string * Scoring.verdict) list;  (** engine name -> verdict *)
  ar_outcomes : (string * Engines.protected_result) list;
      (** engine name -> barrier outcome (crashes show up here, not as
          exceptions) *)
}

type t = {
  engines : string list;
  rows : app_result list;
  totals : (string * (int * int * int)) list;  (** name -> (tp, fp, fn) *)
}

(** [run ?jobs ?apps engines] evaluates [engines] over the scored
    suite.  Each engine runs under the crash barrier (with one
    degraded retry when available), so a hostile case can never abort
    the table; a crashed run scores its expectations as misses.

    [jobs] fans the per-app loop out over that many domains
    ({!Fd_util.Pool.map}); each app still runs its solvers
    sequentially, and the result is bit-identical at any job count. *)
let run ?jobs ?(apps = Suite.scored) (engines : Engines.t list) =
  let rows =
    Fd_util.Pool.map ?jobs
      (fun (app : Bench_app.t) ->
        let protected_runs =
          List.map
            (fun (e : Engines.t) ->
              ( e.Engines.eng_name,
                Engines.run_protected e app.Bench_app.app_apk ))
            engines
        in
        {
          ar_app = app;
          ar_verdicts =
            List.map
              (fun (name, pr) ->
                ( name,
                  Scoring.score
                    ~expected:
                      (List.map Scoring.of_bench_expectation
                         app.Bench_app.app_expected)
                    ~findings:pr.Engines.pr_findings ))
              protected_runs;
          ar_outcomes = protected_runs;
        })
      apps
  in
  let totals =
    List.map
      (fun (e : Engines.t) ->
        let tp, fp, fn =
          List.fold_left
            (fun (tp, fp, fn) row ->
              let v = List.assoc e.Engines.eng_name row.ar_verdicts in
              (tp + v.Scoring.tp, fp + v.Scoring.fp, fn + v.Scoring.fn))
            (0, 0, 0) rows
        in
        (e.Engines.eng_name, (tp, fp, fn)))
      engines
  in
  { engines = List.map (fun (e : Engines.t) -> e.Engines.eng_name) engines;
    rows; totals }

(** [render t] produces the Table 1-style text table. *)
let render t =
  let header = "App Name" :: t.engines in
  let body =
    List.concat_map
      (fun cat ->
        let cat_rows =
          List.filter
            (fun r -> r.ar_app.Bench_app.app_category = cat)
            t.rows
        in
        if cat_rows = [] then []
        else
          Table.Section cat
          :: List.map
               (fun r ->
                 Table.Row
                   (r.ar_app.Bench_app.app_name
                   :: List.map
                        (fun name ->
                          Scoring.markers (List.assoc name r.ar_verdicts))
                        t.engines))
               cat_rows)
      Suite.categories
  in
  let sums =
    [
      Table.Sep;
      Table.Row
        ("● correct, higher better"
        :: List.map (fun n -> let tp, _, _ = List.assoc n t.totals in string_of_int tp) t.engines);
      Table.Row
        ("✱ false warn., lower better"
        :: List.map (fun n -> let _, fp, _ = List.assoc n t.totals in string_of_int fp) t.engines);
      Table.Row
        ("○ missed, lower better"
        :: List.map (fun n -> let _, _, fn = List.assoc n t.totals in string_of_int fn) t.engines);
      Table.Row
        ("Precision p = ●/(●+✱)"
        :: List.map
             (fun n ->
               let tp, fp, _ = List.assoc n t.totals in
               Table.pct tp (tp + fp))
             t.engines);
      Table.Row
        ("Recall r = ●/(●+○)"
        :: List.map
             (fun n ->
               let tp, _, fn = List.assoc n t.totals in
               Table.pct tp (tp + fn))
             t.engines);
      Table.Row
        ("F-measure 2pr/(p+r)"
        :: List.map
             (fun n ->
               let tp, fp, fn = List.assoc n t.totals in
               let p = Scoring.precision ~tp ~fp in
               let r = Scoring.recall ~tp ~fn in
               Printf.sprintf "%.2f" (Table.f_measure p r))
             t.engines);
    ]
  in
  Table.render (Table.make ~header (body @ sums))

(** [totals_of t name] is the (tp, fp, fn) triple of one engine. *)
let totals_of t name = List.assoc name t.totals

(** [outcome_rows t] is one line per app: the per-engine termination
    state ([complete], [crashed: …], with a [degraded] marker when the
    retry supplied the findings). *)
let outcome_rows t =
  List.map
    (fun r ->
      ( r.ar_app.Bench_app.app_name,
        List.map
          (fun (name, (pr : Engines.protected_result)) ->
            let s = Fd_resilience.Outcome.to_string pr.Engines.pr_outcome in
            (name, if pr.Engines.pr_degraded then s ^ " (degraded)" else s))
          r.ar_outcomes ))
    t.rows

(** [outcome_distribution t] counts apps per termination state,
    aggregated over every engine run (the CHANGES.md statistic). *)
let outcome_distribution t =
  Fd_resilience.Outcome.tally
    (List.concat_map
       (fun r ->
         List.map
           (fun (_, (pr : Engines.protected_result)) ->
             (pr.Engines.pr_outcome, pr.Engines.pr_degraded))
           r.ar_outcomes)
       t.rows)

(** [render_outcomes t] is a text table of {!outcome_rows}, listing
    only apps where some engine did not complete cleanly (empty string
    when every run completed). *)
let render_outcomes t =
  let interesting =
    List.filter
      (fun (_, cells) ->
        List.exists (fun (_, s) -> s <> "complete") cells)
      (outcome_rows t)
  in
  if interesting = [] then ""
  else
    Table.render
      (Table.make
         ~header:("App Name" :: t.engines)
         (List.map
            (fun (app, cells) ->
              Table.Row (app :: List.map (fun n -> List.assoc n cells) t.engines))
            interesting))
