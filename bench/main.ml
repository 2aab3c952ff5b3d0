(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (DESIGN.md's experiment index) and measures the
   engine with Bechamel.

   Part 1 prints the reproduced artefacts:
     - Table 1 (DroidBench: FlowDroid vs the simulated comparators)
     - Table 2 (SecuriBench-µ)
     - RQ2 (µInsecureBank)
     - RQ3 (generated Play / malware corpora)
     - the ablations: context injection (F3), activation statements
       (L3), alias search, lifecycle (A3), callback association (A2),
       and the access-path-length sweep (A1)
     - Figure 1 / Figure 2 status lines

   Part 2 runs one Bechamel Test per experiment workload and prints
   per-run time estimates. *)

open Bechamel
open Toolkit

let line () = print_endline (String.make 78 '=')

let section title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* per-section observability: each Part-1 artefact runs with a fresh
   metric registry and trace, and its snapshot is collected into
   BENCH_obs.json next to the human-readable output *)
let obs_sections : (string * Fd_obs.Json.t) list ref = ref []

let with_obs name f =
  Fd_obs.Metrics.reset ();
  Fd_obs.Trace.reset ();
  Fd_obs.Trace.with_span name f;
  obs_sections := (name, Fd_obs.Export.stats_json ()) :: !obs_sections

let write_obs_json path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Fd_obs.Json.to_string ~indent:1
           (Fd_obs.Json.Obj (List.rev !obs_sections))
        ^ "\n"));
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Part 1: tables and figures                                          *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: DROIDBENCH — FlowDroid vs simulated AppScan/Fortify";
  let t =
    Fd_eval.Droidbench_table.run
      [ Fd_eval.Engines.appscan; Fd_eval.Engines.fortify;
        Fd_eval.Engines.flowdroid () ]
  in
  print_string (Fd_eval.Droidbench_table.render t);
  print_newline ()

let table2 () =
  section "Table 2: SecuriBench Micro (SecuriBench-µ) — FlowDroid";
  let t = Fd_eval.Securibench_table.run () in
  print_string (Fd_eval.Securibench_table.render t);
  print_newline ()

let rq2 () =
  section "RQ2: InsecureBank (µInsecureBank)";
  let t0 = Sys.time () in
  let result = Fd_core.Infoflow.analyze_apk Fd_appgen.Insecurebank.apk in
  let t1 = Sys.time () in
  let findings = Fd_eval.Engines.findings_of_result result in
  let v =
    Fd_eval.Scoring.score ~expected:Fd_appgen.Insecurebank.expected_leaks
      ~findings
  in
  Printf.printf
    "expected 7 leaks; found %d (TP %d, FP %d, FN %d) in %.4f s\n\n"
    (List.length findings) v.Fd_eval.Scoring.tp v.Fd_eval.Scoring.fp
    v.Fd_eval.Scoring.fn (t1 -. t0)

let rq3 () =
  section "RQ3: generated corpora (paper: 500 Play apps / ~1000 malware)";
  let play =
    Fd_eval.Corpus.run ~profile:Fd_appgen.Generator.Play ~seed:20140609 ~n:100 ()
  in
  print_string (Fd_eval.Corpus.render play);
  print_newline ();
  let malware =
    Fd_eval.Corpus.run ~profile:Fd_appgen.Generator.Malware ~seed:20140609
      ~n:200 ()
  in
  print_string (Fd_eval.Corpus.render malware);
  print_newline ()

let differential_validation () =
  section "Differential validation (static vs dynamic vs ground truth)";
  List.iter
    (fun profile ->
      let c =
        Fd_diffcheck.Diffcheck.campaign ~profile ~seed:20140609 ~n:100 ()
      in
      print_string (Fd_diffcheck.Diffcheck.render c);
      print_newline ())
    [ Fd_appgen.Generator.Play; Fd_appgen.Generator.Malware ]

let ablation_table () =
  section "Ablations over DROIDBENCH (A1–A3, F3, L3 of DESIGN.md)";
  let engines =
    Fd_eval.Engines.flowdroid ()
    :: (Fd_eval.Engines.ablations
       @ [ Fd_eval.Engines.k_variant 1; Fd_eval.Engines.k_variant 2;
           Fd_eval.Engines.k_variant 3 ])
  in
  let t = Fd_eval.Droidbench_table.run engines in
  (* aggregate view only: per-engine totals *)
  let header = [ "Engine"; "TP"; "FP"; "FN"; "Precision"; "Recall" ] in
  let rows =
    List.map
      (fun (e : Fd_eval.Engines.t) ->
        let tp, fp, fn =
          Fd_eval.Droidbench_table.totals_of t e.Fd_eval.Engines.eng_name
        in
        Fd_util.Table.Row
          [
            e.Fd_eval.Engines.eng_name;
            string_of_int tp;
            string_of_int fp;
            string_of_int fn;
            Fd_util.Table.pct tp (tp + fp);
            Fd_util.Table.pct tp (tp + fn);
          ])
      engines
  in
  print_string (Fd_util.Table.render (Fd_util.Table.make ~header rows));
  print_newline ()

let dynamic_comparison () =
  section "Static vs dynamic (TaintDroid-sim) over DROIDBENCH (Section 7)";
  let t = Fd_eval.Dynamic_table.run () in
  print_string (Fd_eval.Dynamic_table.render t);
  print_newline ()

let figures () =
  section "Figures 1–3 (mechanism demonstrations)";
  print_endline
    "Figure 1 (dummy-main lifecycle CFG): dune exec examples/quickstart.exe";
  print_endline
    "Figure 2 / Listing 2 / Listing 3   : dune exec bin/paper_listings.exe";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timing                                             *)
(* ------------------------------------------------------------------ *)

let direct_leak_apk =
  (Fd_droidbench.Suite.find "DirectLeak1" |> Option.get).Fd_droidbench.Bench_app.app_apk

let button2_apk =
  (Fd_droidbench.Suite.find "Button2" |> Option.get).Fd_droidbench.Bench_app.app_apk

let play_app =
  (Fd_appgen.Generator.generate ~profile:Fd_appgen.Generator.Play
     ~seed:20140609 7).Fd_appgen.Generator.ga_apk

let malware_app =
  (Fd_appgen.Generator.generate ~profile:Fd_appgen.Generator.Malware
     ~seed:20140609 7).Fd_appgen.Generator.ga_apk

let fd config apk () = ignore (Fd_core.Infoflow.analyze_apk ~config apk)

let cfg = Fd_core.Config.default

let tests =
  Test.make_grouped ~name:"flowdroid"
    [
      (* per-table workloads *)
      Test.make ~name:"table1/droidbench-suite"
        (Staged.stage (fun () ->
             List.iter
               (fun (a : Fd_droidbench.Bench_app.t) ->
                 ignore
                   (Fd_core.Infoflow.analyze_apk a.Fd_droidbench.Bench_app.app_apk))
               Fd_droidbench.Suite.scored));
      Test.make ~name:"table1/appscan-suite"
        (Staged.stage (fun () ->
             List.iter
               (fun (a : Fd_droidbench.Bench_app.t) ->
                 ignore
                   (Fd_baselines.Simple_taint.run_appscan
                      a.Fd_droidbench.Bench_app.app_apk))
               Fd_droidbench.Suite.scored));
      Test.make ~name:"table2/securibench-suite"
        (Staged.stage (fun () ->
             List.iter
               (fun c -> ignore (Fd_eval.Securibench_table.run_case c))
               Fd_securibench.Sb_suite.all));
      Test.make ~name:"rq2/insecurebank"
        (Staged.stage (fd cfg Fd_appgen.Insecurebank.apk));
      Test.make ~name:"rq3/play-app" (Staged.stage (fd cfg play_app));
      Test.make ~name:"rq3/malware-app" (Staged.stage (fd cfg malware_app));
      (* single-app micro workloads *)
      Test.make ~name:"micro/direct-leak" (Staged.stage (fd cfg direct_leak_apk));
      Test.make ~name:"micro/button2-callbacks"
        (Staged.stage (fd cfg button2_apk));
      (* ablation costs *)
      Test.make ~name:"ablation/no-alias"
        (Staged.stage
           (fd { cfg with Fd_core.Config.alias_search = false } button2_apk));
      Test.make ~name:"ablation/no-lifecycle"
        (Staged.stage
           (fd { cfg with Fd_core.Config.lifecycle = false } button2_apk));
      Test.make ~name:"ablation/k1"
        (Staged.stage
           (fd { cfg with Fd_core.Config.max_access_path = 1 } play_app));
      Test.make ~name:"ablation/k7"
        (Staged.stage
           (fd { cfg with Fd_core.Config.max_access_path = 7 } play_app));
      (* dynamic-analysis cost on the same workloads *)
      Test.make ~name:"dynamic/droidbench-thorough"
        (Staged.stage (fun () ->
             List.iter
               (fun (a : Fd_droidbench.Bench_app.t) ->
                 match
                   Fd_frontend.Apk.load_merged
                     [ a.Fd_droidbench.Bench_app.app_apk ]
                 with
                 | exception Fd_frontend.Apk.Load_error _ -> ()
                 | m -> ignore (Fd_interp.Droid_runner.run m))
               Fd_droidbench.Suite.scored));
    ]

let benchmark () =
  section "Bechamel timing (per-run estimates)";
  let instances = Instance.[ monotonic_clock ] in
  let bench_cfg =
    Benchmark.cfg ~limit:30 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all bench_cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "%-38s %16s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 56 '-');
  let rows = ref [] in
  Hashtbl.iter
    (fun name (res : Analyze.OLS.t) ->
      let cell =
        match Analyze.OLS.estimates res with
        | Some [ est ] ->
            if est > 1e9 then Printf.sprintf "%.3f s" (est /. 1e9)
            else if est > 1e6 then Printf.sprintf "%.3f ms" (est /. 1e6)
            else Printf.sprintf "%.1f us" (est /. 1e3)
        | _ -> "n/a"
      in
      rows := (name, cell) :: !rows)
    results;
  List.iter
    (fun (name, cell) -> Printf.printf "%-38s %16s\n" name cell)
    (List.sort compare !rows);
  print_newline ()

(* the performance-gate summary: one timed iteration of the
   check_perf.sh workload, plus the interning/dedup counters it turns
   on.  The full gate (repeats, --jobs determinism check,
   BENCH_perf.json) is [sh bench/check_perf.sh]. *)
let perf_summary () =
  section "Performance: gate workload (see bench/check_perf.sh)";
  let engines =
    [ Fd_eval.Engines.flowdroid (); Fd_eval.Engines.appscan;
      Fd_eval.Engines.fortify ]
  in
  (* warm-up fills the lazy framework/rules templates *)
  ignore (Fd_eval.Droidbench_table.run engines);
  Fd_obs.Metrics.reset ();
  let t0 = Unix.gettimeofday () in
  ignore (Fd_eval.Droidbench_table.run engines);
  ignore (Fd_eval.Securibench_table.run ());
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "full table workload: %.4f s (sequential)\n" dt;
  List.iter
    (fun name ->
      Printf.printf "%-32s %d\n" name (Fd_obs.Metrics.counter_value name))
    [ "ifds.worklist_pushes"; "ifds.worklist_dedup_hits" ];
  Printf.printf "jobs: --jobs N on the runners (or FLOWDROID_JOBS) fans the \
                 per-app loops out over N domains\n";
  print_newline ()

(* the targeted-mode summary: one full-vs-targeted pass over a small
   generated corpus, querying the SMS sink only.  The full gate (the
   one-offender fleet, jobs-determinism, store separation,
   BENCH_targeted.json) is [sh bench/check_targeted.sh]. *)
let targeted_summary () =
  section "Targeted mode: gate workload (see bench/check_targeted.sh)";
  let sink = "SmsManager.sendTextMessage" in
  let apks =
    List.map
      (fun ga -> ga.Fd_appgen.Generator.ga_apk)
      (Fd_appgen.Generator.corpus ~profile:Fd_appgen.Generator.Malware
         ~seed:20140609 12)
  in
  let time config =
    let t0 = Unix.gettimeofday () in
    let findings =
      List.concat_map
        (fun apk ->
          let r = Fd_core.Infoflow.analyze_apk ~config apk in
          if config.Fd_core.Config.targeted <> [] then
            r.Fd_core.Infoflow.r_findings
          else
            Fd_core.Infoflow.restrict_findings
              ~icfg:r.Fd_core.Infoflow.r_icfg ~patterns:[ sink ]
              r.Fd_core.Infoflow.r_findings)
        apks
    in
    (Unix.gettimeofday () -. t0, List.length findings)
  in
  let full_s, full_n = time Fd_core.Config.default in
  Fd_obs.Metrics.reset ();
  let targ_s, targ_n =
    time { Fd_core.Config.default with Fd_core.Config.targeted = [ sink ] }
  in
  Printf.printf
    "corpus(12 apps), sink %s:\n  full %.4f s (%d flows into sink), targeted \
     %.4f s (%d flows) = %.2fx\n"
    sink full_s full_n targ_s targ_n (full_s /. targ_s);
  Printf.printf "  targeted.index_probes=%d entries kept/dropped via \
                 targeted.entries_* gauges\n"
    (Fd_obs.Metrics.counter_value "targeted.index_probes");
  print_newline ()

let () =
  with_obs "table1" table1;
  with_obs "table2" table2;
  with_obs "rq2" rq2;
  with_obs "rq3" rq3;
  with_obs "diffcheck" differential_validation;
  with_obs "ablations" ablation_table;
  with_obs "dynamic" dynamic_comparison;
  figures ();
  perf_summary ();
  targeted_summary ();
  benchmark ();
  write_obs_json "BENCH_obs.json"
