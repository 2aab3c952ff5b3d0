(* Regression tests for the DROIDBENCH reproduction (Table 1).

   These pin the per-engine aggregate results so that engine changes
   that would silently alter the headline numbers fail loudly. *)

open Fd_eval
module Suite = Fd_droidbench.Suite
module Bench_app = Fd_droidbench.Bench_app

let table =
  lazy
    (Droidbench_table.run
       [ Engines.appscan; Engines.fortify; Engines.flowdroid () ])

let test_suite_shape () =
  Alcotest.(check int) "51 apps (39 of DroidBench 1.0 + 12 extensions)" 51
    (List.length Suite.all);
  Alcotest.(check int) "35 scored rows (Table 1)" 35 (List.length Suite.scored);
  Alcotest.(check int) "28 expected leaks" 28 Suite.total_expected_leaks;
  (* names unique *)
  let names = List.map (fun a -> a.Bench_app.app_name) Suite.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_flowdroid_totals () =
  let t = Lazy.force table in
  let tp, fp, fn = Droidbench_table.totals_of t "FlowDroid" in
  Alcotest.(check int) "FlowDroid TP (paper: 26)" 26 tp;
  Alcotest.(check int) "FlowDroid FP (paper: 4)" 4 fp;
  Alcotest.(check int) "FlowDroid FN (paper: 2)" 2 fn

let test_comparator_totals () =
  let t = Lazy.force table in
  let atp, afp, afn = Droidbench_table.totals_of t "AppScan" in
  let ftp, ffp, ffn = Droidbench_table.totals_of t "Fortify" in
  (* paper: AppScan 14/5/14, Fortify 17/4/11 — we pin our simulated
     comparators' actual numbers, checking they stay in the paper's
     neighbourhood and preserve the ordering *)
  Alcotest.(check int) "AppScan TP" 13 atp;
  Alcotest.(check int) "AppScan FP" 5 afp;
  Alcotest.(check int) "AppScan FN" 15 afn;
  Alcotest.(check int) "Fortify TP" 18 ftp;
  Alcotest.(check int) "Fortify FP" 5 ffp;
  Alcotest.(check int) "Fortify FN" 10 ffn;
  Alcotest.(check bool) "recall ordering: AppScan < Fortify < FlowDroid" true
    (atp < ftp && ftp < 26)

let verdict_of app engine =
  let t = Lazy.force table in
  let row =
    List.find
      (fun r -> r.Droidbench_table.ar_app.Bench_app.app_name = app)
      t.Droidbench_table.rows
  in
  List.assoc engine row.Droidbench_table.ar_verdicts

let check_verdict app engine ~tp ~fp ~fn =
  let v = verdict_of app engine in
  Alcotest.(check (list int))
    (Printf.sprintf "%s/%s" app engine)
    [ tp; fp; fn ]
    [ v.Scoring.tp; v.Scoring.fp; v.Scoring.fn ]

let test_flowdroid_known_fps () =
  (* the four deliberate imprecisions of Table 1 *)
  check_verdict "ArrayAccess1" "FlowDroid" ~tp:0 ~fp:1 ~fn:0;
  check_verdict "ArrayAccess2" "FlowDroid" ~tp:0 ~fp:1 ~fn:0;
  check_verdict "ListAccess1" "FlowDroid" ~tp:0 ~fp:1 ~fn:0;
  check_verdict "Button2" "FlowDroid" ~tp:2 ~fp:1 ~fn:0

let test_flowdroid_known_fns () =
  (* the two known misses *)
  check_verdict "IntentSink1" "FlowDroid" ~tp:0 ~fp:0 ~fn:1;
  check_verdict "StaticInitialization1" "FlowDroid" ~tp:0 ~fp:0 ~fn:1

let test_flowdroid_clean_categories () =
  (* precision showcases: no false alarms on the sensitivity traps *)
  List.iter
    (fun app -> check_verdict app "FlowDroid" ~tp:0 ~fp:0 ~fn:0)
    [
      "FieldSensitivity1"; "FieldSensitivity2"; "ObjectSensitivity1";
      "ObjectSensitivity2"; "UnreachableCode"; "InactiveActivity"; "LogNoLeak";
    ]

let test_flowdroid_lifecycle_category () =
  (* all six lifecycle leaks found — the headline advantage *)
  List.iter
    (fun app -> check_verdict app "FlowDroid" ~tp:1 ~fp:0 ~fn:0)
    [
      "BroadcastReceiverLifecycle1"; "ActivityLifecycle1"; "ActivityLifecycle2";
      "ActivityLifecycle3"; "ActivityLifecycle4"; "ServiceLifecycle1";
    ]

let test_comparators_miss_lifecycle_state () =
  (* without a lifecycle model, instance-field flows across callbacks
     are invisible to both comparators *)
  List.iter
    (fun app ->
      check_verdict app "AppScan" ~tp:0 ~fp:0 ~fn:1;
      check_verdict app "Fortify" ~tp:0 ~fp:0 ~fn:1)
    [ "ActivityLifecycle4"; "ServiceLifecycle1"; "Button1"; "PrivateDataLeak1" ]

let test_fortify_statics_by_chance () =
  (* Fortify's special static handling finds the static-field
     lifecycle cases (Section 6.1: "only happens by chance") *)
  List.iter
    (fun app ->
      check_verdict app "Fortify" ~tp:1 ~fp:0 ~fn:0;
      check_verdict app "AppScan" ~tp:0 ~fp:0 ~fn:1)
    [ "ActivityLifecycle1"; "ActivityLifecycle2"; "ActivityLifecycle3";
      "BroadcastReceiverLifecycle1" ]

let test_appscan_field_insensitive_fps () =
  check_verdict "FieldSensitivity1" "AppScan" ~tp:0 ~fp:1 ~fn:0;
  check_verdict "FieldSensitivity2" "AppScan" ~tp:0 ~fp:1 ~fn:0;
  check_verdict "FieldSensitivity1" "Fortify" ~tp:0 ~fp:0 ~fn:0;
  check_verdict "FieldSensitivity2" "Fortify" ~tp:0 ~fp:0 ~fn:0

let test_implicit_flows_silent () =
  (* the excluded implicit-flow apps: the engine must stay silent
     (explicit-flow analysis by design) *)
  let fd = Engines.flowdroid () in
  List.iter
    (fun (app : Bench_app.t) ->
      Alcotest.(check int)
        (app.Bench_app.app_name ^ " silent")
        0
        (List.length (fst (fd.Engines.eng_run app.Bench_app.app_apk))))
    (Suite.by_category "Implicit Flows")

(* the post-1.0 extension cases: per-app expected engine behaviour,
   including the documented deviations *)
let test_extensions () =
  let fd = Engines.flowdroid () in
  List.iter
    (fun (name, exp_tp, exp_fp, exp_fn) ->
      let app = Option.get (Suite.find name) in
      let v =
        Scoring.score
          ~expected:
            (List.map Scoring.of_bench_expectation app.Bench_app.app_expected)
          ~findings:(fst (fd.Engines.eng_run app.Bench_app.app_apk))
      in
      Alcotest.(check (list int))
        name
        [ exp_tp; exp_fp; exp_fn ]
        [ v.Scoring.tp; v.Scoring.fp; v.Scoring.fn ])
    [
      ("FieldSensitivity5", 1, 0, 0);
      ("ObjectSensitivity3", 0, 0, 0);
      ("Exceptions1", 0, 0, 0);
      ("LocationLeak3", 1, 0, 0);
      (* reflection edges are not modelled: a documented miss *)
      ("Reflection1", 0, 0, 1);
      ("ServiceCommunication1", 1, 0, 0);
      ("Parcel1", 2, 0, 0);
      ("Threading1", 1, 0, 0);
      ("UnregisteredCallback1", 0, 0, 0);
      ("DeepAlias1", 1, 0, 0);
      ("AsyncTask1", 1, 0, 0);
      ("FragmentLifecycle1", 1, 0, 0);
    ]

(* findings come out in [Bidi.compare_finding] order (sink, then
   source), whatever order the solver meets them in: scoring matches
   expectations greedily in list order *)
let test_finding_order () =
  List.iter
    (fun (name, expected) ->
      let app = Option.get (Suite.find name) in
      let r = Fd_core.Infoflow.analyze_apk app.Bench_app.app_apk in
      let tag = Option.value ~default:"-" in
      Alcotest.(check (list (pair string string)))
        name expected
        (List.map
           (fun (f : Fd_core.Bidi.finding) ->
             (tag f.Fd_core.Bidi.f_sink_tag,
              tag f.Fd_core.Bidi.f_source.Fd_core.Taint.si_tag))
           r.Fd_core.Infoflow.r_findings))
    [
      ( "Button2",
        [ ("sink-sms-a", "src-imei"); ("sink-log-b", "src-imei2");
          ("sink-sms-c", "src-imei") ] );
      (* one sink, two sources: the earlier source statement comes first *)
      ("Parcel1", [ ("sink-log", "src-imei"); ("sink-log", "-") ]);
    ]

let test_render_contains_rows () =
  let t = Lazy.force table in
  let s = Droidbench_table.render t in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun row -> Alcotest.(check bool) (row ^ " in render") true (contains row))
    [ "ArrayAccess1"; "== Lifecycle"; "Precision"; "F-measure"; "93%" ]

(* ---------------- pins: the search itself, and the report ----------------

   The verdict tests above pin what the solver finds; these pin how it
   gets there.  Each app's path-edge count ({!Fd_core.Bidi.propagation_count})
   and an MD5 prefix over its findings (source and sink points, tags,
   description, category and propagation path, in report order) are
   fixed for the 51 DroidBench apps and a generated sample of ten Play
   and ten malware apps, under the default config and with every
   precision pass on.  A refactor of the engine's set-up that changes
   what the worklist explores fails here, not only in a benchmark. *)

let pin_sample =
  lazy
    (List.map
       (fun (a : Bench_app.t) -> (a.Bench_app.app_name, a.Bench_app.app_apk))
       Suite.all
    @ List.concat_map
        (fun profile ->
          List.init 10 (fun i ->
              let g = Fd_appgen.Generator.generate ~profile ~seed:5 i in
              (g.Fd_appgen.Generator.ga_name, g.Fd_appgen.Generator.ga_apk)))
        [ Fd_appgen.Generator.Play; Fd_appgen.Generator.Malware ])

let finding_line (f : Fd_core.Bidi.finding) =
  let s = f.Fd_core.Bidi.f_source in
  let node = Fd_callgraph.Icfg.string_of_node in
  let tag = Option.value ~default:"-" in
  String.concat "\t"
    [
      node s.Fd_core.Taint.si_node;
      tag s.Fd_core.Taint.si_tag;
      s.Fd_core.Taint.si_desc;
      node f.Fd_core.Bidi.f_sink_node;
      tag f.Fd_core.Bidi.f_sink_tag;
      Fd_frontend.Sourcesink.string_of_category f.Fd_core.Bidi.f_sink_cat;
      String.concat " " (List.map node f.Fd_core.Bidi.f_path);
    ]

let search_pin (r : Fd_core.Infoflow.result) =
  ( Fd_core.Bidi.propagation_count r.Fd_core.Infoflow.r_engine,
    String.sub
      (Digest.to_hex
         (Digest.string
            (String.concat "\n"
               (List.map finding_line r.Fd_core.Infoflow.r_findings))))
      0 8 )

let check_search_pins ?config expected =
  let sample = Lazy.force pin_sample in
  Alcotest.(check int) "one pin per app" (List.length sample)
    (List.length expected);
  List.iter
    (fun (name, edges, digest) ->
      let apk = List.assoc name sample in
      Alcotest.(check (pair int string))
        name (edges, digest)
        (search_pin (Fd_core.Infoflow.analyze_apk ?config apk)))
    expected

let test_search_pinned () =
  check_search_pins
    [
    ("ArrayAccess1", 11, "83e50ff5");
    ("ArrayAccess2", 14, "aab0c349");
    ("ListAccess1", 13, "73c12d4f");
    ("AnonymousClass1", 7, "e256fb81");
    ("Button1", 96, "5184f389");
    ("Button2", 984, "53227894");
    ("LocationLeak1", 405, "18c96a62");
    ("LocationLeak2", 866, "8d2568ee");
    ("MethodOverride1", 6, "53088da6");
    ("FieldSensitivity1", 20, "d41d8cd9");
    ("FieldSensitivity2", 84, "d41d8cd9");
    ("FieldSensitivity3", 22, "fd2e122c");
    ("FieldSensitivity4", 95, "5f30dc7e");
    ("InheritedObjects1", 9, "e64d4c1e");
    ("ObjectSensitivity1", 23, "d41d8cd9");
    ("ObjectSensitivity2", 42, "d41d8cd9");
    ("IntentSink1", 10, "d41d8cd9");
    ("IntentSink2", 10, "2113d4c4");
    ("ActivityCommunication1", 16, "bddb1c46");
    ("BroadcastReceiverLifecycle1", 27, "502c08c8");
    ("ActivityLifecycle1", 29, "4e5d67e4");
    ("ActivityLifecycle2", 28, "3a02ee18");
    ("ActivityLifecycle3", 28, "052cf2da");
    ("ActivityLifecycle4", 131, "1aed65d6");
    ("ServiceLifecycle1", 160, "17617727");
    ("Loop1", 15, "9aa1e208");
    ("Loop2", 74, "efff3236");
    ("SourceCodeSpecific1", 11, "f009b2a9");
    ("StaticInitialization1", 23, "d41d8cd9");
    ("UnreachableCode", 1, "d41d8cd9");
    ("PrivateDataLeak1", 208, "a03567da");
    ("PrivateDataLeak2", 8, "56bcbbe6");
    ("DirectLeak1", 6, "fe2e9816");
    ("InactiveActivity", 1, "d41d8cd9");
    ("LogNoLeak", 1, "d41d8cd9");
    ("ImplicitFlow1", 6, "d41d8cd9");
    ("ImplicitFlow2", 15, "d41d8cd9");
    ("ImplicitFlow3", 5, "d41d8cd9");
    ("ImplicitFlow4", 5, "d41d8cd9");
    ("FieldSensitivity5", 33, "707be28c");
    ("ObjectSensitivity3", 10, "d41d8cd9");
    ("Exceptions1", 4, "d41d8cd9");
    ("LocationLeak3", 171, "02be57a2");
    ("Reflection1", 6, "d41d8cd9");
    ("ServiceCommunication1", 45, "0d370069");
    ("Parcel1", 13, "2bfb910e");
    ("Threading1", 305, "876434ff");
    ("UnregisteredCallback1", 1, "d41d8cd9");
    ("DeepAlias1", 117, "ef827979");
    ("AsyncTask1", 9, "60436371");
    ("FragmentLifecycle1", 261, "ad17d11b");
    ("play-0000", 29, "0ea015ec");
    ("play-0001", 27, "cd1d661c");
    ("play-0002", 7, "d41d8cd9");
    ("play-0003", 24, "09eab5cc");
    ("play-0004", 112, "3fada2ac");
    ("play-0005", 7, "d41d8cd9");
    ("play-0006", 93, "4bed7df2");
    ("play-0007", 198, "49d57d1e");
    ("play-0008", 11, "dbacdcdc");
    ("play-0009", 13, "6bc1b531");
    ("malware-0000", 13, "30f9427d");
    ("malware-0001", 23, "99c41e1c");
    ("malware-0002", 15, "385505d9");
    ("malware-0003", 21, "0cf6cf9d");
    ("malware-0004", 87, "60f5eaab");
    ("malware-0005", 12, "57ab1e4d");
    ("malware-0006", 5, "fe2518e4");
    ("malware-0007", 32, "d41d8cd9");
    ("malware-0008", 14, "51f456fd");
    ("malware-0009", 49, "7e2f91bc");
    ]

let test_search_pinned_precision () =
  check_search_pins
    ~config:
      { Fd_core.Config.default with
        Fd_core.Config.precision = Fd_core.Config.all_precision }
    [
    ("play-0000", 26, "5814adf1");
    ("play-0001", 28, "31d62c6e");
    ("play-0002", 7, "d41d8cd9");
    ("play-0003", 25, "691a1cc9");
    ("play-0004", 108, "e127d917");
    ("play-0005", 7, "d41d8cd9");
    ("play-0006", 96, "7915f719");
    ("play-0007", 203, "00f7c1c0");
    ("play-0008", 9, "d41d8cd9");
    ("play-0009", 12, "d41d8cd9");
    ("malware-0000", 13, "30f9427d");
    ("malware-0001", 23, "99c41e1c");
    ("malware-0002", 15, "385505d9");
    ("malware-0003", 22, "2f979403");
    ("malware-0004", 93, "ece50fdf");
    ("malware-0005", 12, "57ab1e4d");
    ("malware-0006", 5, "fe2518e4");
    ("malware-0007", 38, "f4705342");
    ("malware-0008", 14, "51f456fd");
    ("malware-0009", 50, "992b541e");
    ("ArrayAccess1", 10, "d41d8cd9");
    ("ArrayAccess2", 14, "aab0c349");
    ("ListAccess1", 13, "73c12d4f");
    ("AnonymousClass1", 7, "e256fb81");
    ("Button1", 96, "5184f389");
    ("Button2", 462, "009171c7");
    ("LocationLeak1", 402, "18c96a62");
    ("LocationLeak2", 859, "8d2568ee");
    ("MethodOverride1", 6, "53088da6");
    ("FieldSensitivity1", 20, "d41d8cd9");
    ("FieldSensitivity2", 76, "d41d8cd9");
    ("FieldSensitivity3", 22, "fd2e122c");
    ("FieldSensitivity4", 83, "5f30dc7e");
    ("InheritedObjects1", 9, "e64d4c1e");
    ("ObjectSensitivity1", 23, "d41d8cd9");
    ("ObjectSensitivity2", 36, "d41d8cd9");
    ("IntentSink1", 10, "d41d8cd9");
    ("IntentSink2", 10, "2113d4c4");
    ("ActivityCommunication1", 16, "bddb1c46");
    ("BroadcastReceiverLifecycle1", 27, "502c08c8");
    ("ActivityLifecycle1", 29, "4e5d67e4");
    ("ActivityLifecycle2", 28, "3a02ee18");
    ("ActivityLifecycle3", 28, "052cf2da");
    ("ActivityLifecycle4", 130, "1aed65d6");
    ("ServiceLifecycle1", 158, "17617727");
    ("Loop1", 15, "9aa1e208");
    ("Loop2", 74, "efff3236");
    ("SourceCodeSpecific1", 11, "f009b2a9");
    ("StaticInitialization1", 31, "6e642e53");
    ("UnreachableCode", 1, "d41d8cd9");
    ("PrivateDataLeak1", 208, "a03567da");
    ("PrivateDataLeak2", 8, "56bcbbe6");
    ("DirectLeak1", 6, "fe2e9816");
    ("InactiveActivity", 1, "d41d8cd9");
    ("LogNoLeak", 1, "d41d8cd9");
    ("ImplicitFlow1", 6, "d41d8cd9");
    ("ImplicitFlow2", 15, "d41d8cd9");
    ("ImplicitFlow3", 5, "d41d8cd9");
    ("ImplicitFlow4", 5, "d41d8cd9");
    ("FieldSensitivity5", 33, "707be28c");
    ("ObjectSensitivity3", 10, "d41d8cd9");
    ("Exceptions1", 4, "d41d8cd9");
    ("LocationLeak3", 170, "02be57a2");
    ("Reflection1", 10, "7985779c");
    ("ServiceCommunication1", 45, "0d370069");
    ("Parcel1", 13, "2bfb910e");
    ("Threading1", 202, "876434ff");
    ("UnregisteredCallback1", 1, "d41d8cd9");
    ("DeepAlias1", 115, "ef827979");
    ("AsyncTask1", 9, "60436371");
    ("FragmentLifecycle1", 258, "ad17d11b");
    ]

(* the XML report of every DroidBench app, with and without a
   completeness marker, byte for byte: the runtime entry is zeroed,
   the only field that is not a function of the app *)
let test_report_digest () =
  let buf = Buffer.create 131072 in
  List.iter
    (fun (a : Bench_app.t) ->
      let r = Fd_core.Infoflow.analyze_apk a.Bench_app.app_apk in
      let r =
        { r with
          Fd_core.Infoflow.r_stats =
            { r.Fd_core.Infoflow.r_stats with Fd_core.Infoflow.st_time = 0.0 } }
      in
      Buffer.add_string buf (Fd_core.Report.to_xml_string r);
      Buffer.add_string buf
        (Fd_core.Report.to_xml_string ~completeness:"partial" r))
    Suite.all;
  Alcotest.(check (pair int string))
    "length and MD5 of the 102 reports" (99825, "b8d410bf4aafc52d61205df2c3525263")
    (Buffer.length buf, Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "fd_droidbench"
    [
      ( "suite",
        [
          Alcotest.test_case "shape" `Quick test_suite_shape;
          Alcotest.test_case "render" `Slow test_render_contains_rows;
          Alcotest.test_case "finding order" `Quick test_finding_order;
        ] );
      ( "totals",
        [
          Alcotest.test_case "FlowDroid 26/4/2" `Slow test_flowdroid_totals;
          Alcotest.test_case "comparators" `Slow test_comparator_totals;
        ] );
      ( "per-app",
        [
          Alcotest.test_case "known FPs" `Slow test_flowdroid_known_fps;
          Alcotest.test_case "known FNs" `Slow test_flowdroid_known_fns;
          Alcotest.test_case "clean traps" `Slow test_flowdroid_clean_categories;
          Alcotest.test_case "lifecycle wins" `Slow
            test_flowdroid_lifecycle_category;
          Alcotest.test_case "comparators miss state" `Slow
            test_comparators_miss_lifecycle_state;
          Alcotest.test_case "Fortify statics by chance" `Slow
            test_fortify_statics_by_chance;
          Alcotest.test_case "AppScan field-insensitivity" `Slow
            test_appscan_field_insensitive_fps;
          Alcotest.test_case "implicit flows silent" `Slow
            test_implicit_flows_silent;
          Alcotest.test_case "extension cases" `Slow test_extensions;
        ] );
      ( "pins",
        [
          Alcotest.test_case "search pinned" `Quick test_search_pinned;
          Alcotest.test_case "search pinned, precision passes" `Quick
            test_search_pinned_precision;
          Alcotest.test_case "report digest" `Quick test_report_digest;
        ] );
    ]
