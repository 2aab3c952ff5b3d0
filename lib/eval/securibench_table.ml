(** Table 2 regeneration: FlowDroid over SecuriBench-µ, grouped
    TP/FP counts. *)

open Fd_securibench
module Table = Fd_util.Table

type group_result = {
  gr_group : string;
  gr_expected : int;
  gr_tp : int;
  gr_fp : int;
  gr_na : bool;
}

type t = {
  group_results : group_result list;
  per_case : (string * Scoring.verdict) list;
  per_case_outcomes : (string * Fd_resilience.Outcome.t) list;
      (** termination state per case: a crash scores empty findings, a
          run stopped early (deadline, budget) scores what it found *)
}

(** [run_case ?config case] analyses one case with the core engine and
    the suite's manually supplied sources/sinks, returning its findings
    and termination state. *)
let run_case ?(config = Fd_core.Config.default) (case : Sb_case.t) =
  let defs = Fd_frontend.Sourcesink.of_string Sb_case.sources_sinks_config in
  let entries =
    List.map
      (fun (cls, mname) ->
        Fd_callgraph.Mkey.{ mk_class = cls; mk_name = mname; mk_arity = 2 })
      case.Sb_case.sb_entries
  in
  let result =
    Fd_core.Infoflow.analyze_plain ~config ~synthetic_main:true
      ~classes:case.Sb_case.sb_classes ~entries ~defs ()
  in
  Engines.run_of_result result

(* one case under the crash barrier, with a degraded retry: a crash
   scores as zero findings instead of aborting the suite *)
let run_case_protected ?(config = Fd_core.Config.default) (case : Sb_case.t) =
  let pr =
    Engines.protect ~label:case.Sb_case.sb_name
      ~retry:(fun () ->
        run_case ~config:(Engines.degraded_config config) case)
      (fun () -> run_case ~config case)
  in
  ( Scoring.score ~expected:case.Sb_case.sb_expected
      ~findings:pr.Engines.pr_findings,
    pr.Engines.pr_outcome )

(** [run ?jobs ?config ()] evaluates the whole suite; each case runs
    under the crash barrier.  [jobs] fans the per-case loop out over
    that many domains ({!Fd_util.Pool.map}); results are bit-identical
    at any job count. *)
let run ?jobs ?config () =
  let protected_runs =
    Fd_util.Pool.map ?jobs
      (fun c -> (c.Sb_case.sb_name, run_case_protected ?config c))
      Sb_suite.all
  in
  let per_case = List.map (fun (n, (v, _)) -> (n, v)) protected_runs in
  let per_case_outcomes =
    List.map (fun (n, (_, o)) -> (n, o)) protected_runs
  in
  let group_results =
    List.map
      (fun g ->
        if List.mem g Sb_suite.na_groups then
          { gr_group = g; gr_expected = 0; gr_tp = 0; gr_fp = 0; gr_na = true }
        else begin
          let cases = Sb_suite.by_group g in
          let tp, fp =
            List.fold_left
              (fun (tp, fp) c ->
                let v = List.assoc c.Sb_case.sb_name per_case in
                (tp + v.Scoring.tp, fp + v.Scoring.fp))
              (0, 0) cases
          in
          {
            gr_group = g;
            gr_expected = Sb_suite.expected_in g;
            gr_tp = tp;
            gr_fp = fp;
            gr_na = false;
          }
        end)
      Sb_suite.groups
  in
  { group_results; per_case; per_case_outcomes }

(** [totals t] is (found, expected, fp) over the implemented groups. *)
let totals t =
  List.fold_left
    (fun (f, e, fp) gr -> (f + gr.gr_tp, e + gr.gr_expected, fp + gr.gr_fp))
    (0, 0, 0) t.group_results

(** [render t] produces the Table 2-style text table. *)
let render t =
  let rows =
    List.map
      (fun gr ->
        if gr.gr_na then Table.Row [ gr.gr_group; "n/a"; "n/a" ]
        else
          Table.Row
            [
              gr.gr_group;
              Printf.sprintf "%d/%d" gr.gr_tp gr.gr_expected;
              string_of_int gr.gr_fp;
            ])
      t.group_results
  in
  let found, expected, fp = totals t in
  Table.render
    (Table.make
       ~header:[ "Test-case group"; "TP"; "FP" ]
       (rows
       @ [
           Table.Sep;
           Table.Row [ "Sum"; Printf.sprintf "%d/%d" found expected; string_of_int fp ];
         ]))
