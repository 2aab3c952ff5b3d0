(* Tests for Fd_obs: the metrics registry, the span tracer and the
   JSON utilities the observability layer exports through. *)

module M = Fd_obs.Metrics
module T = Fd_obs.Trace
module J = Fd_obs.Json
module R = Fd_obs.Ring
module P = Fd_obs.Profile

(* every test starts from a clean registry and trace so that tests do
   not observe each other's metrics (the reset-isolation contract) *)
let fresh () =
  M.reset ();
  T.reset ()

(* ---------------- counters and gauges ---------------- *)

let test_counter_basics () =
  fresh ();
  let c = M.counter "test.c" in
  Alcotest.(check int) "starts at zero" 0 (M.value c);
  M.incr c;
  M.incr c;
  M.add c 40;
  Alcotest.(check int) "incr and add" 42 (M.value c);
  Alcotest.(check int) "lookup by name" 42 (M.counter_value "test.c");
  Alcotest.(check int) "unknown name is 0" 0 (M.counter_value "test.absent")

let test_counter_identity () =
  fresh ();
  let a = M.counter "test.same" and b = M.counter "test.same" in
  M.incr a;
  Alcotest.(check int) "one registration per name" 1 (M.value b)

let test_gauge () =
  fresh ();
  let g = M.gauge "test.g" in
  M.set g 2.5;
  Alcotest.(check (float 0.0)) "set" 2.5 (M.gauge_value g);
  M.set_int g 7;
  Alcotest.(check (float 0.0)) "set_int" 7.0 (M.gauge_value g)

(* ---------------- histograms ---------------- *)

let test_histogram_semantics () =
  fresh ();
  let h = M.histogram "test.h" in
  Alcotest.(check int) "empty" 0 (M.hist_count h);
  List.iter (M.observe h) [ 0.001; 0.002; 0.004; 1.0 ];
  Alcotest.(check int) "count" 4 (M.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 1.007 (M.hist_sum h);
  let buckets = M.hist_buckets h in
  Alcotest.(check int) "bucket total" 4
    (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets);
  (* bucket upper bounds are sorted and each sample is <= its bound *)
  let bounds = List.map fst buckets in
  Alcotest.(check bool) "bounds ascending" true
    (List.sort compare bounds = bounds);
  List.iter
    (fun (le, _) -> Alcotest.(check bool) "log-scale bound" true (le > 0.))
    buckets

let test_histogram_extremes () =
  fresh ();
  let h = M.histogram "test.extreme" in
  (* zero, negative and huge samples clamp into the edge buckets
     instead of escaping the array *)
  List.iter (M.observe h) [ 0.0; -1.0; 1e12 ];
  Alcotest.(check int) "count" 3 (M.hist_count h);
  Alcotest.(check int) "bucket total" 3
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (M.hist_buckets h))

let test_time () =
  fresh ();
  let h = M.histogram "test.time" in
  let x = M.time h (fun () -> 42) in
  Alcotest.(check int) "result passes through" 42 x;
  Alcotest.(check int) "one sample" 1 (M.hist_count h);
  (* the observation happens even when the timed function raises *)
  (try M.time h (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "sample on raise" 2 (M.hist_count h)

(* ---------------- quantiles ---------------- *)

let test_quantiles_single_bucket () =
  fresh ();
  let h = M.histogram "test.q1" in
  for _ = 1 to 100 do
    M.observe h 0.001
  done;
  let hs = List.assoc "test.q1" (M.snapshot ()).M.sn_histograms in
  (* min = max, so the clamp pins every quantile to the exact value *)
  Alcotest.(check (float 1e-12)) "p50" 0.001 hs.M.hs_p50;
  Alcotest.(check (float 1e-12)) "p99" 0.001 hs.M.hs_p99

let test_quantiles_spread () =
  fresh ();
  let h = M.histogram "test.q2" in
  for _ = 1 to 90 do
    M.observe h 0.001
  done;
  for _ = 1 to 10 do
    M.observe h 1.0
  done;
  let hs = List.assoc "test.q2" (M.snapshot ()).M.sn_histograms in
  Alcotest.(check bool) "p50 <= p90" true (hs.M.hs_p50 <= hs.M.hs_p90);
  Alcotest.(check bool) "p90 <= p99" true (hs.M.hs_p90 <= hs.M.hs_p99);
  Alcotest.(check bool) "within [min,max]" true
    (hs.M.hs_p50 >= hs.M.hs_min && hs.M.hs_p99 <= hs.M.hs_max);
  (* rank 50 falls among the 0.001 samples, rank 99 among the 1.0s *)
  Alcotest.(check bool) "p50 is small" true (hs.M.hs_p50 <= 0.002);
  Alcotest.(check bool) "p99 is large" true (hs.M.hs_p99 >= 0.5)

let test_quantiles_empty () =
  fresh ();
  let h = M.histogram "test.q3" in
  ignore h;
  let hs = List.assoc "test.q3" (M.snapshot ()).M.sn_histograms in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 hs.M.hs_p50;
  Alcotest.(check (float 0.0)) "empty p99" 0.0 hs.M.hs_p99

(* ---------------- ring buffer ---------------- *)

let test_ring_basics () =
  let r = R.create () in
  Alcotest.(check (list (triple int int int))) "empty" [] (R.to_list r);
  R.push r 0 1 2;
  R.push r 1 3 4;
  Alcotest.(check (list (triple int int int)))
    "fifo before wrap" [ (0, 1, 2); (1, 3, 4) ] (R.to_list r);
  for i = 1 to R.capacity do
    R.push r i (-i) (2 * i)
  done;
  Alcotest.(check (list (triple int int int)))
    "newest capacity events, oldest first"
    (List.init R.capacity (fun i -> (i + 1, -(i + 1), 2 * (i + 1))))
    (R.to_list r)

(* wrap-around property: for any push sequence, the ring holds exactly
   the last [min capacity n] events, in push order *)
let test_ring_wraparound_property =
  QCheck.Test.make ~name:"ring keeps the suffix" ~count:500
    QCheck.(list_of_size Gen.(0 -- 60) (triple small_int int int))
    (fun evs ->
      let r = R.create () in
      List.iter (fun (a, b, c) -> R.push r a b c) evs;
      let n = List.length evs in
      let expect = List.filteri (fun i _ -> i >= n - min R.capacity n) evs in
      R.to_list r = expect)

let test_flight_recorder () =
  let r = R.create () in
  let show k a b = Printf.sprintf "e%d:%d:%d" k a b in
  Alcotest.(check string) "empty render" "" (R.render r show);
  R.push r 1 2 3;
  R.push r 4 5 6;
  Alcotest.(check string) "render joins, oldest first" "e1:2:3 | e4:5:6"
    (R.render r show);
  (* elision marker: more events than the ring holds *)
  for i = 1 to R.capacity + 3 do
    R.push r 0 i 0
  done;
  let line = R.render r show in
  Alcotest.(check bool) ("oldest held first: " ^ line) true
    (String.starts_with ~prefix:"e0:4:0 | " line);
  Alcotest.(check bool) ("elision suffix: " ^ line) true
    (String.ends_with ~suffix:"e0:19:0 (+5 earlier)" line)

(* ---------------- profiler ---------------- *)

let test_profile_basics () =
  P.reset ();
  Alcotest.(check bool) "disabled when empty" false (P.enabled ());
  let a = P.cell "A.m/1" and b = P.cell "B.n/0" in
  Alcotest.(check bool) "enabled after registration" true (P.enabled ());
  P.add_pop a ~seconds:0.002;
  P.add_pop a ~seconds:0.001;
  P.add_fact a;
  P.add_pop b ~seconds:0.010;
  (match P.entries () with
  | [ hot; cold ] ->
      Alcotest.(check string) "hottest first" "B.n/0" hot.P.e_name;
      Alcotest.(check int) "pops" 1 hot.P.e_pops;
      Alcotest.(check int) "facts" 1 cold.P.e_facts;
      Alcotest.(check (float 1e-9)) "time accumulates" 0.003 cold.P.e_seconds
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  Alcotest.(check int) "top k" 1 (List.length (P.top ~k:1));
  (* collapsed-stack lines: flowdroid;<method> <usec> *)
  let lines = String.split_on_char '\n' (String.trim (P.collapsed ())) in
  Alcotest.(check int) "one line per method" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "frame prefix" true
        (String.length l > 10 && String.sub l 0 10 = "flowdroid;"))
    lines;
  (* same-name lookup returns the same accumulator *)
  P.add_fact (P.cell "A.m/1");
  Alcotest.(check int) "cell identity" 2
    (List.find (fun e -> e.P.e_name = "A.m/1") (P.entries ())).P.e_facts;
  P.reset ();
  Alcotest.(check (list string)) "reset drops cells" []
    (List.map (fun e -> e.P.e_name) (P.entries ()))

let test_profile_json () =
  P.reset ();
  P.add_pop (P.cell "Hot.m/0") ~seconds:0.5;
  (match P.to_json () with
  | J.List [ J.Obj fields ] ->
      Alcotest.(check bool) "method field" true
        (List.assoc_opt "method" fields = Some (J.String "Hot.m/0"));
      Alcotest.(check bool) "pops field" true
        (List.assoc_opt "pops" fields = Some (J.Int 1))
  | j -> Alcotest.failf "unexpected profile JSON %s" (J.to_string j));
  P.reset ()

(* ---------------- reset isolation ---------------- *)

let test_reset_isolates () =
  fresh ();
  let c = M.counter "test.reset.c" in
  let g = M.gauge "test.reset.g" in
  let h = M.histogram "test.reset.h" in
  M.add c 10;
  M.set g 3.0;
  M.observe h 0.5;
  M.reset ();
  Alcotest.(check int) "counter zeroed" 0 (M.value c);
  Alcotest.(check (float 0.0)) "gauge zeroed" 0.0 (M.gauge_value g);
  Alcotest.(check int) "histogram emptied" 0 (M.hist_count h);
  Alcotest.(check bool) "histogram buckets emptied" true (M.hist_buckets h = []);
  (* the handle survives the reset: no re-registration needed *)
  M.incr c;
  Alcotest.(check int) "handle still live" 1 (M.counter_value "test.reset.c")

(* ---------------- span tracing ---------------- *)

let test_span_nesting () =
  fresh ();
  Alcotest.(check int) "no open span" 0 (T.depth ());
  T.with_span "outer" (fun () ->
      Alcotest.(check int) "outer open" 1 (T.depth ());
      T.with_span "inner" (fun () ->
          Alcotest.(check int) "inner open" 2 (T.depth ()));
      Alcotest.(check int) "inner closed" 1 (T.depth ()));
  Alcotest.(check int) "balanced" 0 (T.depth ());
  let spans = T.spans () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let outer = List.nth spans 0 and inner = List.nth spans 1 in
  Alcotest.(check string) "start order" "outer" outer.T.sp_name;
  Alcotest.(check int) "outer top-level" 0 outer.T.sp_depth;
  Alcotest.(check int) "inner nested" 1 inner.T.sp_depth;
  Alcotest.(check int) "inner's parent is outer" 0 inner.T.sp_parent;
  Alcotest.(check bool) "inner within outer" true
    (inner.T.sp_start >= outer.T.sp_start
    && inner.T.sp_start +. inner.T.sp_dur
       <= outer.T.sp_start +. outer.T.sp_dur +. 1e-6)

let test_span_balance_on_raise () =
  fresh ();
  (try T.with_span "raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "closed despite raise" 0 (T.depth ());
  Alcotest.check_raises "unmatched end_span"
    (Invalid_argument "Trace.end_span: no open span") (fun () -> T.end_span ())

let test_span_aggregate () =
  fresh ();
  T.with_span "phase" (fun () -> ());
  T.with_span "phase" (fun () -> T.with_span "sub" (fun () -> ()));
  match T.aggregate () with
  | [ ("phase", _, n_phase); ("sub", _, n_sub) ] ->
      Alcotest.(check int) "phase count" 2 n_phase;
      Alcotest.(check int) "sub count" 1 n_sub
  | other ->
      Alcotest.failf "unexpected aggregate of %d entries" (List.length other)

let test_trace_reset () =
  fresh ();
  T.with_span "gone" (fun () -> ());
  T.reset ();
  Alcotest.(check int) "spans dropped" 0 (List.length (T.spans ()));
  Alcotest.(check int) "stack cleared" 0 (T.depth ())

(* ---------------- JSON round-trips ---------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("null", J.Null);
        ("flags", J.List [ J.Bool true; J.Bool false ]);
        ("n", J.Int (-42));
        ("pi", J.Float 3.25);
        ("s", J.String "a \"quoted\"\n\tstring \\ with escapes");
        ("empty_obj", J.Obj []);
        ("empty_list", J.List []);
      ]
  in
  Alcotest.(check bool) "compact round-trip" true
    (J.equal v (J.parse_string (J.to_string v)));
  Alcotest.(check bool) "indented round-trip" true
    (J.equal v (J.parse_string (J.to_string ~indent:2 v)))

let test_json_errors () =
  List.iter
    (fun s ->
      match J.parse_string s with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

let test_snapshot_roundtrip () =
  fresh ();
  M.add (M.counter "ifds.path_edges") 5742;
  M.set (M.gauge "cg.edges") 17.0;
  M.observe (M.histogram "core.analysis_seconds") 0.016;
  T.with_span "taint.solve" (fun () -> ());
  let json = Fd_obs.Export.stats_json () in
  let reparsed = J.parse_string (J.to_string ~indent:1 json) in
  Alcotest.(check bool) "stats JSON round-trips" true (J.equal json reparsed);
  (match J.member "counters" reparsed with
  | Some (J.Obj counters) ->
      Alcotest.(check bool) "counter preserved" true
        (List.assoc_opt "ifds.path_edges" counters = Some (J.Int 5742))
  | _ -> Alcotest.fail "no counters object");
  match J.member "phases" reparsed with
  | Some (J.Obj phases) ->
      Alcotest.(check bool) "phase recorded" true
        (List.mem_assoc "taint.solve" phases)
  | _ -> Alcotest.fail "no phases object"

let test_chrome_trace_valid () =
  fresh ();
  T.with_span "a" (fun () -> T.with_span "b" (fun () -> ()));
  T.with_span "c" (fun () -> ());
  let doc = J.parse_string (T.to_chrome_string ()) in
  match J.member "traceEvents" doc with
  | Some (J.List events) ->
      Alcotest.(check int) "one event per span" 3 (List.length events);
      List.iter
        (fun ev ->
          List.iter
            (fun k ->
              Alcotest.(check bool)
                (Printf.sprintf "event has %s" k)
                true
                (J.member k ev <> None))
            [ "name"; "ph"; "ts"; "dur"; "pid"; "tid" ];
          Alcotest.(check bool) "complete event" true
            (J.member "ph" ev = Some (J.String "X")))
        events
  | _ -> Alcotest.fail "no traceEvents array"

(* the engine actually feeds the registry: analysing one app yields
   non-zero solver counters and a solve phase *)
let test_engine_populates_registry () =
  fresh ();
  let app =
    match Fd_droidbench.Suite.find "DirectLeak1" with
    | Some a -> a.Fd_droidbench.Bench_app.app_apk
    | None -> Alcotest.fail "DirectLeak1 missing from the suite"
  in
  let result = Fd_core.Infoflow.analyze_apk app in
  Alcotest.(check bool) "found the leak" true
    (result.Fd_core.Infoflow.r_findings <> []);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s > 0" name)
        true
        (M.counter_value name > 0))
    [
      "ifds.path_edges"; "ifds.worklist_pops"; "ifds.flow.normal";
      "bidi.fw_propagations"; "core.findings";
    ];
  (* the snapshot in the result record agrees with the registry *)
  let sn = result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_metrics in
  Alcotest.(check bool) "snapshot has path edges" true
    (List.assoc_opt "ifds.path_edges" sn.M.sn_counters
    = Some (M.counter_value "ifds.path_edges"));
  Alcotest.(check bool) "solve phase traced" true
    (List.exists (fun (n, _, _) -> n = "taint.solve") (T.aggregate ()))

(* the static-field gate counts the static-rooted facts it keeps out
   of callees: in a merged Scene one app's static taints meet the
   other app's callbacks (app 3 of this corpus stashes its secret in a
   static field); an app without static fields has none *)
let test_static_skip_counter () =
  let skipped apks =
    fresh ();
    ignore
      (Fd_core.Infoflow.analyze_merged (Fd_frontend.Apk.load_merged apks));
    M.counter_value "ifds.flow.call_static_skipped"
  in
  let gen i =
    (Fd_appgen.Generator.generate ~profile:Fd_appgen.Generator.Play ~seed:1 i)
      .Fd_appgen.Generator.ga_apk
  in
  let alone = skipped [ gen 3 ] and merged = skipped [ gen 0; gen 3 ] in
  Alcotest.(check bool) "merged two-app run skips callees" true (merged > 0);
  Alcotest.(check bool) "the other app's callees are skipped too" true
    (merged > alone);
  let app =
    match Fd_droidbench.Suite.find "DirectLeak1" with
    | Some a -> a.Fd_droidbench.Bench_app.app_apk
    | None -> Alcotest.fail "DirectLeak1 missing from the suite"
  in
  Alcotest.(check int) "no static fields, nothing skipped" 0 (skipped [ app ])

(* the zero-fact gate counts the callees it keeps the zero fact out
   of: [main] generates a taint and calls a helper with no source in
   its call tree.  Under the naive handover (context injection off)
   the zero fact enters every callee, so nothing is skipped. *)
let test_zero_skip_counter () =
  let module B = Fd_ir.Build in
  let module SS = Fd_frontend.Sourcesink in
  let prog =
    B.cls "t.Z"
      [
        B.meth "main" ~static:true (fun m ->
            let x = B.local m "x" in
            B.scall m ~tag:"s" ~ret:x "t.Source" "secret" [];
            B.scall m "t.Z" "helper" [];
            B.scall m ~tag:"k" "t.Sink" "leak" [ B.v x ]);
        B.meth "helper" ~static:true (fun m -> B.nop m);
      ]
  in
  let defs =
    SS.create
      [
        SS.Return_source
          { cls = "t.Source"; mname = "secret"; cat = SS.Generic };
        SS.Sink { cls = "t.Sink"; mname = "leak"; cat = SS.Generic };
      ]
  in
  let skipped config =
    fresh ();
    let r =
      Fd_core.Infoflow.analyze_plain ~config ~classes:[ prog ]
        ~entries:
          [
            Fd_callgraph.Mkey.
              { mk_class = "t.Z"; mk_name = "main"; mk_arity = 0 };
          ]
        ~defs ()
    in
    Alcotest.(check int) "the leak is found" 1
      (List.length r.Fd_core.Infoflow.r_findings);
    M.counter_value "ifds.flow.call_zero_skipped"
  in
  Alcotest.(check int) "the source-free helper is skipped" 1
    (skipped Fd_core.Config.default);
  Alcotest.(check int) "nothing is skipped under the naive handover" 0
    (skipped
       { Fd_core.Config.default with Fd_core.Config.context_injection = false })

(* with provenance on, the same app yields a witness per finding and
   the Chrome trace / witnesses JSON stay valid; with it off (the
   default, exercised above) findings carry no witness *)
let test_provenance_engine () =
  fresh ();
  let app =
    match Fd_droidbench.Suite.find "DirectLeak1" with
    | Some a -> a.Fd_droidbench.Bench_app.app_apk
    | None -> Alcotest.fail "DirectLeak1 missing from the suite"
  in
  let plain = Fd_core.Infoflow.analyze_apk app in
  List.iter
    (fun (fd : Fd_core.Bidi.finding) ->
      Alcotest.(check bool) "no witness when provenance is off" true
        (fd.Fd_core.Bidi.f_witness = []))
    plain.Fd_core.Infoflow.r_findings;
  fresh ();
  let config =
    { Fd_core.Config.default with Fd_core.Config.provenance = true }
  in
  let result = Fd_core.Infoflow.analyze_apk ~config app in
  let findings = result.Fd_core.Infoflow.r_findings in
  Alcotest.(check bool) "found the leak" true (findings <> []);
  List.iter
    (fun (fd : Fd_core.Bidi.finding) ->
      Alcotest.(check bool) "witness recorded" true
        (fd.Fd_core.Bidi.f_witness <> []))
    findings;
  Alcotest.(check bool) "provenance does not change the flows" true
    (List.map
       (fun (fd : Fd_core.Bidi.finding) ->
         (fd.Fd_core.Bidi.f_source.Fd_core.Taint.si_tag,
          fd.Fd_core.Bidi.f_sink_tag))
       findings
    = List.map
        (fun (fd : Fd_core.Bidi.finding) ->
          (fd.Fd_core.Bidi.f_source.Fd_core.Taint.si_tag,
           fd.Fd_core.Bidi.f_sink_tag))
        plain.Fd_core.Infoflow.r_findings);
  (* the Chrome trace is still valid JSON after a provenance-on run *)
  (match J.member "traceEvents" (J.parse_string (T.to_chrome_string ())) with
  | Some (J.List events) ->
      Alcotest.(check bool) "trace has events" true (events <> [])
  | _ -> Alcotest.fail "no traceEvents array");
  (* the witnesses array round-trips through the JSON printer/parser *)
  let wj = Fd_core.Report.witnesses_json findings in
  (match wj with
  | J.List ws ->
      Alcotest.(check int) "one entry per witnessed finding"
        (List.length findings) (List.length ws)
  | _ -> Alcotest.fail "witnesses is not a list");
  Alcotest.(check bool) "witnesses JSON round-trips" true
    (J.equal wj (J.parse_string (J.to_string ~indent:1 wj)))

let suite_app name =
  match Fd_droidbench.Suite.find name with
  | Some a -> a.Fd_droidbench.Bench_app.app_apk
  | None -> Alcotest.fail (name ^ " missing from the suite")

(* the profiler accounts every worklist pop and every path edge of a
   solve to some method: its per-method totals add up to the solver's
   own counters *)
let test_profile_engine () =
  fresh ();
  P.reset ();
  let config = { Fd_core.Config.default with Fd_core.Config.profile = true } in
  let _ = Fd_core.Infoflow.analyze_apk ~config (suite_app "DeepAlias1") in
  let entries = P.entries () in
  Alcotest.(check bool) "methods profiled" true (entries <> []);
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 entries in
  Alcotest.(check int) "pops add up to ifds.worklist_pops"
    (M.counter_value "ifds.worklist_pops")
    (sum (fun e -> e.P.e_pops));
  Alcotest.(check int) "facts add up to ifds.path_edges"
    (M.counter_value "ifds.path_edges")
    (sum (fun e -> e.P.e_facts));
  P.reset ()

(* a solve stopped by its propagation budget returns the flight
   recorder's recent events as a diagnostic: the stop itself and the
   worklist pops that led to it.  The budget is half of what the
   unbudgeted solve propagates, so the stop is real. *)
let test_flight_recorder_diag () =
  fresh ();
  let app = suite_app "DirectLeak1" in
  let full = Fd_core.Infoflow.analyze_apk app in
  let props =
    full.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_propagations
  in
  let config =
    { Fd_core.Config.default with
      Fd_core.Config.max_propagations = props / 2 }
  in
  let r = Fd_core.Infoflow.analyze_apk ~config app in
  Alcotest.(check string) "the budget stops the solve" "budget-exhausted"
    (Fd_resilience.Outcome.to_string
       r.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_outcome);
  let contains s sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  match
    List.filter
      (fun (d : Fd_resilience.Diag.t) ->
        d.Fd_resilience.Diag.d_file = "flight-recorder")
      r.Fd_core.Infoflow.r_diags
  with
  | [ d ] ->
      let msg = d.Fd_resilience.Diag.d_msg in
      Alcotest.(check bool) ("budget.stop in: " ^ msg) true
        (contains msg "budget.stop");
      Alcotest.(check bool) ("fw.pop in: " ^ msg) true (contains msg "fw.pop")
  | ds ->
      Alcotest.failf "expected one flight-recorder diagnostic, got %d"
        (List.length ds)

(* ---------------- the post-mortem contract ---------------- *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* the event names a solver's post-mortem renders *)
let has_solver_event msg =
  List.exists (contains msg)
    [ "seed "; "fw.pop "; "bw.pop "; "call-edge "; "return-edge " ]

let crash_message = function
  | Error (Fd_resilience.Outcome.Crashed msg) -> msg
  | Error o -> Alcotest.failf "expected a crash, got %s"
                 (Fd_resilience.Outcome.to_string o)
  | Ok _ -> Alcotest.fail "expected a crash"

(* a finished solve leaves nothing behind for a later crash: the
   post-mortem travels only with an exception that escaped a solve *)
let test_no_stale_post_mortem () =
  ignore (Fd_core.Infoflow.analyze_apk (suite_app "DirectLeak1"));
  let msg =
    crash_message
      (Fd_resilience.Barrier.protect ~label:"outside" (fun () ->
           failwith "unrelated"))
  in
  Alcotest.(check string) "no flight suffix" "outside: Failure(\"unrelated\")"
    msg

(* nothing global keeps a finished engine reachable *)
let test_engine_collectable () =
  let w : Fd_core.Bidi.t Weak.t = Weak.create 1 in
  let run () =
    let r = Fd_core.Infoflow.analyze_apk (suite_app "DirectLeak1") in
    Weak.set w 0 (Some r.Fd_core.Infoflow.r_engine)
  in
  (Sys.opaque_identity run) ();
  Gc.full_major ();
  Alcotest.(check bool) "engine collected" false (Weak.check w 0)

(* a fault injected at [solver.step] crashes the solve, and the
   barrier's message carries the solve's post-mortem: a fault at the
   very first tick (rate 1) finds the seed, later ones find pops *)
let test_chaos_post_mortem () =
  let crash ~seed ~rate =
    let chaos = Fd_resilience.Chaos.create ~seed ~rate in
    let budget = Fd_core.Config.budget ~chaos Fd_core.Config.default in
    crash_message
      (Fd_resilience.Barrier.protect ~label:"chaos" (fun () ->
           Fd_core.Infoflow.analyze_apk ~budget (suite_app "Button2")))
  in
  let first = crash ~seed:1 ~rate:1.0 in
  Alcotest.(check bool) ("fault site in: " ^ first) true
    (contains first "injected fault at solver.step");
  Alcotest.(check bool) ("seed event in: " ^ first) true
    (contains first "[flight: seed ");
  let later =
    List.filter_map
      (fun seed ->
        match crash ~seed ~rate:0.5 with
        | msg -> Some msg
        | exception _ -> None)
      (List.init 8 Fun.id)
  in
  List.iter
    (fun msg ->
      Alcotest.(check bool) ("post-mortem in: " ^ msg) true
        (contains msg "[flight: " && has_solver_event msg))
    later;
  Alcotest.(check bool) "a later fault finds pops" true
    (List.exists (fun msg -> contains msg "fw.pop ") later)

let () =
  Alcotest.run "fd_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter identity" `Quick test_counter_identity;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram semantics" `Quick
            test_histogram_semantics;
          Alcotest.test_case "histogram extremes" `Quick
            test_histogram_extremes;
          Alcotest.test_case "time" `Quick test_time;
          Alcotest.test_case "reset isolates" `Quick test_reset_isolates;
          Alcotest.test_case "quantiles single bucket" `Quick
            test_quantiles_single_bucket;
          Alcotest.test_case "quantiles spread" `Quick test_quantiles_spread;
          Alcotest.test_case "quantiles empty" `Quick test_quantiles_empty;
        ] );
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basics;
          QCheck_alcotest.to_alcotest test_ring_wraparound_property;
          Alcotest.test_case "flight recorder" `Quick test_flight_recorder;
        ] );
      ( "profile",
        [
          Alcotest.test_case "basics" `Quick test_profile_basics;
          Alcotest.test_case "json" `Quick test_profile_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "balance on raise" `Quick
            test_span_balance_on_raise;
          Alcotest.test_case "aggregate" `Quick test_span_aggregate;
          Alcotest.test_case "reset" `Quick test_trace_reset;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "snapshot round-trip" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace_valid;
        ] );
      ( "integration",
        [
          Alcotest.test_case "engine populates registry" `Quick
            test_engine_populates_registry;
          Alcotest.test_case "static-field gate counter" `Quick
            test_static_skip_counter;
          Alcotest.test_case "zero-fact gate counter" `Quick
            test_zero_skip_counter;
          Alcotest.test_case "provenance engine run" `Quick
            test_provenance_engine;
          Alcotest.test_case "profiler totals" `Quick test_profile_engine;
          Alcotest.test_case "flight-recorder diagnostic" `Quick
            test_flight_recorder_diag;
        ] );
      ( "post-mortem",
        [
          Alcotest.test_case "no stale post-mortem" `Quick
            test_no_stale_post_mortem;
          Alcotest.test_case "finished engine is collectable" `Quick
            test_engine_collectable;
          Alcotest.test_case "chaos crash carries solver events" `Quick
            test_chaos_post_mortem;
        ] );
    ]
