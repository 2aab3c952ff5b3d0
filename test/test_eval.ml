(* Tests for the evaluation harness: scoring, the SecuriBench-µ
   reproduction totals (Table 2), µInsecureBank (RQ2) and the corpus
   generator (RQ3). *)

module Scoring = Fd_eval.Scoring

(* ---------------- scoring ---------------- *)

let test_score_exact_match () =
  let v =
    Scoring.score
      ~expected:[ (Some "s", "k") ]
      ~findings:[ (Some "s", Some "k") ]
  in
  Alcotest.(check (list int)) "1/0/0" [ 1; 0; 0 ] [ v.Scoring.tp; v.Scoring.fp; v.Scoring.fn ]

let test_score_wildcard_source () =
  let v =
    Scoring.score ~expected:[ (None, "k") ] ~findings:[ (Some "any", Some "k") ]
  in
  Alcotest.(check int) "wildcard matches" 1 v.Scoring.tp

let test_score_fp_and_fn () =
  let v =
    Scoring.score
      ~expected:[ (Some "s1", "k1"); (Some "s2", "k2") ]
      ~findings:[ (Some "s1", Some "k1"); (Some "x", Some "kx") ]
  in
  Alcotest.(check (list int)) "1 tp, 1 fp, 1 fn" [ 1; 1; 1 ]
    [ v.Scoring.tp; v.Scoring.fp; v.Scoring.fn ]

let test_score_no_double_match () =
  (* two identical findings cannot both match one expectation *)
  let v =
    Scoring.score
      ~expected:[ (Some "s", "k") ]
      ~findings:[ (Some "s", Some "k"); (Some "s", Some "k") ]
  in
  Alcotest.(check (list int)) "second is spurious" [ 1; 1; 0 ]
    [ v.Scoring.tp; v.Scoring.fp; v.Scoring.fn ]

let test_score_wrong_source () =
  let v =
    Scoring.score
      ~expected:[ (Some "s", "k") ]
      ~findings:[ (Some "other", Some "k") ]
  in
  Alcotest.(check (list int)) "wrong source is fp+fn" [ 0; 1; 1 ]
    [ v.Scoring.tp; v.Scoring.fp; v.Scoring.fn ]

let test_markers () =
  let v =
    Scoring.score
      ~expected:[ (Some "s", "k"); (Some "s2", "k2") ]
      ~findings:[ (Some "s", Some "k"); (Some "x", Some "y") ]
  in
  Alcotest.(check string) "marker string" "\xe2\x97\x8f \xe2\x9c\xb1 \xe2\x97\x8b"
    (Scoring.markers v)

(* ---------------- Table 2 regression ---------------- *)

let test_securibench_totals () =
  let t = Fd_eval.Securibench_table.run () in
  let found, expected, fp = Fd_eval.Securibench_table.totals t in
  Alcotest.(check int) "expected 121 (Table 2)" 121 expected;
  Alcotest.(check int) "found 117 (Table 2)" 117 found;
  Alcotest.(check int) "9 false positives (Table 2)" 9 fp;
  (* per-group shape *)
  List.iter
    (fun (g, e_tp, e_exp, e_fp) ->
      let gr =
        List.find
          (fun r -> r.Fd_eval.Securibench_table.gr_group = g)
          t.Fd_eval.Securibench_table.group_results
      in
      Alcotest.(check (list int))
        (g ^ " group")
        [ e_tp; e_exp; e_fp ]
        [
          gr.Fd_eval.Securibench_table.gr_tp;
          gr.Fd_eval.Securibench_table.gr_expected;
          gr.Fd_eval.Securibench_table.gr_fp;
        ])
    [
      ("Aliasing", 11, 11, 0);
      ("Arrays", 9, 9, 6);
      ("Basic", 58, 60, 0);
      ("Collections", 14, 14, 3);
      ("Datastructure", 5, 5, 0);
      ("Factory", 3, 3, 0);
      ("Inter", 14, 16, 0);
      ("Session", 3, 3, 0);
      ("StrongUpdates", 0, 0, 0);
    ]

let test_securibench_na_groups () =
  let t = Fd_eval.Securibench_table.run () in
  List.iter
    (fun g ->
      let gr =
        List.find
          (fun r -> r.Fd_eval.Securibench_table.gr_group = g)
          t.Fd_eval.Securibench_table.group_results
      in
      Alcotest.(check bool) (g ^ " is n/a") true gr.Fd_eval.Securibench_table.gr_na)
    [ "Pred"; "Reflection"; "Sanitizer" ]

(* ---------------- RQ2 regression ---------------- *)

let test_insecurebank () =
  let result = Fd_core.Infoflow.analyze_apk Fd_appgen.Insecurebank.apk in
  let findings = Fd_eval.Engines.findings_of_result result in
  let v =
    Scoring.score ~expected:Fd_appgen.Insecurebank.expected_leaks ~findings
  in
  Alcotest.(check (list int)) "7/0/0 (paper: all seven leaks, no FP/FN)"
    [ 7; 0; 0 ]
    [ v.Scoring.tp; v.Scoring.fp; v.Scoring.fn ]

(* ---------------- RQ3 / generator ---------------- *)

let test_generator_determinism () =
  let a1 = Fd_appgen.Generator.generate ~profile:Fd_appgen.Generator.Malware ~seed:7 3 in
  let a2 = Fd_appgen.Generator.generate ~profile:Fd_appgen.Generator.Malware ~seed:7 3 in
  Alcotest.(check string) "same name" a1.Fd_appgen.Generator.ga_name
    a2.Fd_appgen.Generator.ga_name;
  Alcotest.(check int) "same class count" a1.Fd_appgen.Generator.ga_classes
    a2.Fd_appgen.Generator.ga_classes;
  Alcotest.(check int) "same planted leaks"
    (List.length a1.Fd_appgen.Generator.ga_expected)
    (List.length a2.Fd_appgen.Generator.ga_expected);
  let a3 = Fd_appgen.Generator.generate ~profile:Fd_appgen.Generator.Malware ~seed:8 3 in
  Alcotest.(check bool) "different seed differs somewhere" true
    (a3.Fd_appgen.Generator.ga_classes <> a1.Fd_appgen.Generator.ga_classes
    || List.length a3.Fd_appgen.Generator.ga_expected
       <> List.length a1.Fd_appgen.Generator.ga_expected
    || a3.Fd_appgen.Generator.ga_apk <> a1.Fd_appgen.Generator.ga_apk)

let test_generated_apps_load () =
  (* every generated app must pass frontend validation *)
  List.iter
    (fun profile ->
      List.iter
        (fun (ga : Fd_appgen.Generator.gen_app) ->
          ignore (Fd_frontend.Apk.load ga.Fd_appgen.Generator.ga_apk))
        (Fd_appgen.Generator.corpus ~profile ~seed:99 10))
    [ Fd_appgen.Generator.Play; Fd_appgen.Generator.Malware ]

let test_corpus_recall () =
  (* the engine must recover every planted leak (they are all explicit
     flows through modelled constructs) *)
  let t =
    Fd_eval.Corpus.run ~profile:Fd_appgen.Generator.Malware ~seed:1234 ~n:30 ()
  in
  let s = Fd_eval.Corpus.summarize t in
  Alcotest.(check (float 0.001)) "100% recall on planted leaks" 1.0
    s.Fd_eval.Corpus.s_recall

let test_corpus_leak_rate () =
  (* malware profile targets the paper's 1.85 leaks/app average *)
  let apps =
    Fd_appgen.Generator.corpus ~profile:Fd_appgen.Generator.Malware ~seed:5 300
  in
  let total =
    List.fold_left
      (fun acc (a : Fd_appgen.Generator.gen_app) ->
        acc + List.length a.Fd_appgen.Generator.ga_expected)
      0 apps
  in
  let mean = float_of_int total /. 300.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.2f in [1.5, 2.2]" mean)
    true
    (mean > 1.5 && mean < 2.2)

let test_profiles_differ_in_size () =
  let avg profile =
    let apps = Fd_appgen.Generator.corpus ~profile ~seed:77 20 in
    List.fold_left
      (fun a (g : Fd_appgen.Generator.gen_app) ->
        a + g.Fd_appgen.Generator.ga_classes)
      0 apps
    / 20
  in
  Alcotest.(check bool) "play apps larger than malware apps" true
    (avg Fd_appgen.Generator.Play > avg Fd_appgen.Generator.Malware)

(* ---------------- XML report ---------------- *)

let test_xml_report () =
  let result = Fd_core.Infoflow.analyze_apk Fd_appgen.Insecurebank.apk in
  let xml = Fd_core.Report.to_xml_string result in
  (* the emitted document parses with our own XML parser *)
  let doc = Fd_xml.Xml.parse_string xml in
  Alcotest.(check string) "root" "DataFlowResults" (Fd_xml.Xml.tag doc);
  let results = Fd_xml.Xml.descendants_named doc "Result" in
  Alcotest.(check int) "7 results" 7 (List.length results);
  (* every result has a sink and at least one source with a path *)
  List.iter
    (fun r ->
      Alcotest.(check int) "one sink" 1
        (List.length (Fd_xml.Xml.children_named r "Sink"));
      let sources = Fd_xml.Xml.descendants_named r "Source" in
      Alcotest.(check bool) "has source" true (sources <> []);
      Alcotest.(check bool) "has path elements" true
        (Fd_xml.Xml.descendants_named r "PathElement" <> []))
    results;
  (* performance data present *)
  Alcotest.(check bool) "perf entries" true
    (List.length (Fd_xml.Xml.descendants_named doc "PerformanceEntry") >= 3);
  (* summary line mentions the flow count *)
  let sum = Fd_core.Report.summary result in
  Alcotest.(check bool) "summary mentions 7" true
    (let re = "7 flow(s)" in
     String.length sum >= String.length re
     && String.sub sum 0 (String.length re) = re)

(* a run stopped by its deadline is reported as such, not as complete:
   the tables carry each run's own outcome through the barrier *)
let test_deadline_outcomes () =
  let config =
    { Fd_core.Config.default with Fd_core.Config.deadline_s = Some 0. }
  in
  let apps = List.filteri (fun i _ -> i < 2) Fd_droidbench.Suite.scored in
  let db =
    Fd_eval.Droidbench_table.run ~apps [ Fd_eval.Engines.flowdroid ~config () ]
  in
  Alcotest.(check (list (pair string int)))
    "droidbench distribution"
    [ ("deadline-exceeded", 2) ]
    (Fd_eval.Droidbench_table.outcome_distribution db);
  Alcotest.(check bool) "droidbench outcome rows listed" true
    (Fd_eval.Droidbench_table.render_outcomes db <> "");
  let sb = Fd_eval.Securibench_table.run ~config () in
  List.iter
    (fun (name, o) ->
      Alcotest.(check string) name "deadline-exceeded"
        (Fd_resilience.Outcome.to_string o))
    sb.Fd_eval.Securibench_table.per_case_outcomes

let () =
  Alcotest.run "fd_eval"
    [
      ( "scoring",
        [
          Alcotest.test_case "exact match" `Quick test_score_exact_match;
          Alcotest.test_case "wildcard source" `Quick test_score_wildcard_source;
          Alcotest.test_case "fp and fn" `Quick test_score_fp_and_fn;
          Alcotest.test_case "no double match" `Quick test_score_no_double_match;
          Alcotest.test_case "wrong source" `Quick test_score_wrong_source;
          Alcotest.test_case "markers" `Quick test_markers;
        ] );
      ( "securibench",
        [
          Alcotest.test_case "Table 2 totals" `Slow test_securibench_totals;
          Alcotest.test_case "n/a groups" `Quick test_securibench_na_groups;
        ] );
      ( "insecurebank",
        [ Alcotest.test_case "RQ2: 7/7" `Quick test_insecurebank ] );
      ( "report",
        [ Alcotest.test_case "XML output" `Quick test_xml_report ] );
      ( "corpus",
        [
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "generated apps load" `Quick test_generated_apps_load;
          Alcotest.test_case "planted-leak recall" `Slow test_corpus_recall;
          Alcotest.test_case "malware leak rate" `Quick test_corpus_leak_rate;
          Alcotest.test_case "profile sizes" `Quick test_profiles_differ_in_size;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "deadline-exceeded reported" `Quick
            test_deadline_outcomes;
        ] );
    ]
