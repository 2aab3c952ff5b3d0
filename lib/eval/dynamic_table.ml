(** The static-vs-dynamic comparison (the Section 7 TaintDroid
    discussion, made measurable): FLOWDROID against the TaintDroid-sim
    dynamic monitor under two driver-coverage levels, over
    DROIDBENCH. *)

open Fd_droidbench
module Table = Fd_util.Table

type row = {
  dr_app : Bench_app.t;
  dr_static : Scoring.verdict;
  dr_basic : Scoring.verdict;
  dr_thorough : Scoring.verdict;
}

type t = { rows : row list }

let dynamic_findings ~coverage (apk : Fd_frontend.Apk.t) =
  match Fd_frontend.Apk.load_merged [ apk ] with
  | exception Fd_frontend.Apk.Load_error _ -> []
  | m ->
      Fd_interp.Droid_runner.findings (Fd_interp.Droid_runner.run ~coverage m)

(** [run ?apps ()] scores the three analyses over the suite. *)
let run ?(apps = Suite.scored) () =
  let fd = Engines.flowdroid () in
  {
    rows =
      List.map
        (fun (app : Bench_app.t) ->
          let expected =
            List.map Scoring.of_bench_expectation app.Bench_app.app_expected
          in
          let score findings = Scoring.score ~expected ~findings in
          {
            dr_app = app;
            dr_static = score (fst (fd.Engines.eng_run app.Bench_app.app_apk));
            dr_basic =
              score
                (dynamic_findings ~coverage:Fd_interp.Droid_runner.Basic
                   app.Bench_app.app_apk);
            dr_thorough =
              score
                (dynamic_findings ~coverage:Fd_interp.Droid_runner.Thorough
                   app.Bench_app.app_apk);
          })
        apps;
  }

let totals select t =
  List.fold_left
    (fun (tp, fp, fn) r ->
      let v = select r in
      (tp + v.Scoring.tp, fp + v.Scoring.fp, fn + v.Scoring.fn))
    (0, 0, 0) t.rows

(** [render t] prints the per-app and aggregate comparison. *)
let render t =
  let header =
    [ "App Name"; "FlowDroid (static)"; "Dynamic (basic)"; "Dynamic (thorough)" ]
  in
  let body =
    List.concat_map
      (fun cat ->
        let rows =
          List.filter (fun r -> r.dr_app.Bench_app.app_category = cat) t.rows
        in
        if rows = [] then []
        else
          Table.Section cat
          :: List.map
               (fun r ->
                 Table.Row
                   [
                     r.dr_app.Bench_app.app_name;
                     Scoring.markers r.dr_static;
                     Scoring.markers r.dr_basic;
                     Scoring.markers r.dr_thorough;
                   ])
               rows)
      Suite.categories
  in
  let sums =
    [
      Table.Sep;
      Table.Row
        ("TP / FP / FN"
        :: List.map
             (fun select ->
               let tp, fp, fn = totals select t in
               Printf.sprintf "%d / %d / %d" tp fp fn)
             [ (fun r -> r.dr_static); (fun r -> r.dr_basic);
               (fun r -> r.dr_thorough) ]);
      Table.Row
        ("Recall"
        :: List.map
             (fun select ->
               let tp, _, fn = totals select t in
               Table.pct tp (tp + fn))
             [ (fun r -> r.dr_static); (fun r -> r.dr_basic);
               (fun r -> r.dr_thorough) ]);
      Table.Row
        ("Precision"
        :: List.map
             (fun select ->
               let tp, fp, _ = totals select t in
               Table.pct tp (tp + fp))
             [ (fun r -> r.dr_static); (fun r -> r.dr_basic);
               (fun r -> r.dr_thorough) ]);
    ]
  in
  Table.render (Table.make ~header (body @ sums))
