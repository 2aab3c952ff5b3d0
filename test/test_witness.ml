(* Witness-path validation: every flow reported under [--provenance]
   must carry a provenance witness that

   - starts at the finding's source statement and ends at its sink
     statement (endpoint agreement with the reported flow);
   - takes only ICFG-adjacent steps (no teleporting across the
     program: each consecutive pair of witness nodes is one solver
     step apart under {!Fd_diffcheck.Diffcheck.witness_adjacent});
   - on apps the dynamic interpreter also leaks on, agrees with the
     interpreter's observed (source tag, sink tag) keys.

   Checked on the full DroidBench suite (every true positive the
   engine reports), on the checked-in minimized reproducers under
   examples/repro, and on the on-disk quickstart app. *)

module Dc = Fd_diffcheck.Diffcheck
module Suite = Fd_droidbench.Suite
module Apk = Fd_frontend.Apk

let check_report name (wr : Dc.witness_report) =
  List.iter
    (fun e -> Printf.printf "witness error: %s\n" e)
    wr.Dc.wr_errors;
  Alcotest.(check (list string))
    (Printf.sprintf "%s: structurally valid witnesses" name)
    [] wr.Dc.wr_errors;
  Alcotest.(check int)
    (Printf.sprintf "%s: every finding witnessed" name)
    wr.Dc.wr_findings wr.Dc.wr_witnessed

(* every DroidBench case: each reported flow (in particular every true
   positive) carries a source-to-sink witness with ICFG-adjacent
   steps *)
let test_droidbench_witnesses () =
  List.iter
    (fun (app : Fd_droidbench.Bench_app.t) ->
      let name = app.Fd_droidbench.Bench_app.app_name in
      check_report name
        (Dc.check_witnesses ~name app.Fd_droidbench.Bench_app.app_apk))
    Suite.all

(* on a direct leak the dynamic interpreter observes the same key the
   witness explains: static witness and dynamic trace agree *)
let test_dynamic_agreement () =
  let app =
    match Suite.find "DirectLeak1" with
    | Some a -> a.Fd_droidbench.Bench_app.app_apk
    | None -> Alcotest.fail "DirectLeak1 missing from the suite"
  in
  let wr = Dc.check_witnesses ~name:"DirectLeak1" app in
  check_report "DirectLeak1" wr;
  Alcotest.(check bool) "at least one witnessed flow" true
    (wr.Dc.wr_witnessed > 0);
  Alcotest.(check int) "interpreter confirms every witnessed flow"
    wr.Dc.wr_witnessed wr.Dc.wr_dynamic_agree

(* the checked-in minimized reproducers: witnesses stay valid on apps
   crafted to sit exactly on a documented limitation (static-only
   flows are expected there — FP reproducers — so only structural
   validity and endpoint agreement are asserted) *)
let test_repro_witnesses () =
  let root = "../examples/repro" in
  let cases =
    Sys.readdir root |> Array.to_list |> List.sort compare
    |> List.filter (fun d -> Sys.is_directory (Filename.concat root d))
  in
  Alcotest.(check bool) "reproducers present" true (cases <> []);
  List.iter
    (fun case ->
      let apk = Apk.of_dir (Filename.concat root case) in
      check_report case (Dc.check_witnesses ~name:case apk))
    cases

(* the on-disk quickstart app, loaded the way the CLI loads it *)
let test_example_app_witnesses () =
  let apk = Apk.of_dir "../examples/apps/leakage_app" in
  let wr = Dc.check_witnesses ~name:"leakage_app" apk in
  check_report "leakage_app" wr;
  Alcotest.(check bool) "flow witnessed" true (wr.Dc.wr_witnessed > 0)

(* exact witnesses: the full (node, statement, fact, kind) step list of
   every finding, pinned on DeepAlias1 (whose witness crosses the
   alias, backward and inject handovers) and DirectLeak1 *)
let pinned_witnesses =
  [
    ( "DeepAlias1",
      [
        [
          ("ext.DeepAlias1.onCreate/1@7", "x = virtualinvoke tm.android.telephony.TelephonyManager#getDeviceId() @\"src-imei\"", "0", "normal");
          ("ext.DeepAlias1.onCreate/1@8", "staticinvoke ext.DA1Helper#taint(a, x)", "x", "source");
          ("ext.DA1Helper.taint/2@0", "n := @parameter0", "s", "call");
          ("ext.DA1Helper.taint/2@1", "s := @parameter1", "s", "normal");
          ("ext.DA1Helper.taint/2@2", "inner = n.ext.DA1Node#next", "s", "normal");
          ("ext.DA1Helper.taint/2@3", "inner.ext.DA1Node#v = s", "s", "normal");
          ("ext.DA1Helper.taint/2@3", "inner.ext.DA1Node#v = s", "inner.v*inactive*@act:ext.DA1Helper.taint/2@3", "alias");
          ("ext.DA1Helper.taint/2@2", "inner = n.ext.DA1Node#next", "n.next.v*inactive*@act:ext.DA1Helper.taint/2@3", "inject");
          ("ext.DA1Helper.taint/2@3", "inner.ext.DA1Node#v = s", "n.next.v*inactive*@act:ext.DA1Helper.taint/2@3", "normal");
          ("ext.DA1Helper.taint/2@4", "return", "n.next.v", "normal");
          ("ext.DeepAlias1.onCreate/1@8", "staticinvoke ext.DA1Helper#taint(a, x)", "a.next.v*inactive*@act:ext.DeepAlias1.onCreate/1@8", "alias");
          ("ext.DeepAlias1.onCreate/1@7", "x = virtualinvoke tm.android.telephony.TelephonyManager#getDeviceId() @\"src-imei\"", "a.next.v*inactive*@act:ext.DeepAlias1.onCreate/1@8", "backward");
          ("ext.DeepAlias1.onCreate/1@6", "tm = new android.telephony.TelephonyManager", "a.next.v*inactive*@act:ext.DeepAlias1.onCreate/1@8", "backward");
          ("ext.DA1Helper.alias/1@2", "return r", "n.next.v*inactive*@act:ext.DeepAlias1.onCreate/1@8", "backward");
          ("ext.DA1Helper.alias/1@2", "return r", "r.v*inactive*@act:ext.DeepAlias1.onCreate/1@8", "inject");
          ("ext.DeepAlias1.onCreate/1@6", "tm = new android.telephony.TelephonyManager", "b.v*inactive*@act:ext.DeepAlias1.onCreate/1@8", "return");
          ("ext.DeepAlias1.onCreate/1@7", "x = virtualinvoke tm.android.telephony.TelephonyManager#getDeviceId() @\"src-imei\"", "b.v*inactive*@act:ext.DeepAlias1.onCreate/1@8", "normal");
          ("ext.DeepAlias1.onCreate/1@8", "staticinvoke ext.DA1Helper#taint(a, x)", "b.v*inactive*@act:ext.DeepAlias1.onCreate/1@8", "call-to-return");
          ("ext.DeepAlias1.onCreate/1@9", "out = b.ext.DA1Node#v", "b.v", "call-to-return");
          ("ext.DeepAlias1.onCreate/1@10", "sms = staticinvoke android.telephony.SmsManager#getDefault()", "out", "normal");
          ("ext.DeepAlias1.onCreate/1@11", "virtualinvoke sms.android.telephony.SmsManager#sendTextMessage(\"+49 1234\", null, out, null, null) @\"sink-sms\"", "out", "call-to-return");
        ];
      ] );
    ( "DirectLeak1",
      [
        [
          ("de.ecspride.DirectLeak1.onCreate/1@3", "imei = virtualinvoke tm.android.telephony.TelephonyManager#getDeviceId() @\"src-imei\"", "0", "normal");
          ("de.ecspride.DirectLeak1.onCreate/1@4", "sms = staticinvoke android.telephony.SmsManager#getDefault()", "imei", "source");
          ("de.ecspride.DirectLeak1.onCreate/1@5", "virtualinvoke sms.android.telephony.SmsManager#sendTextMessage(\"+49 1234\", null, imei, null, null) @\"sink-sms\"", "imei", "call-to-return");
        ];
      ] );
  ]

let test_pinned_witnesses () =
  List.iter
    (fun (name, expected) ->
      let app =
        match Suite.find name with
        | Some a -> a.Fd_droidbench.Bench_app.app_apk
        | None -> Alcotest.fail (name ^ " missing from the suite")
      in
      let config =
        { Fd_core.Config.default with Fd_core.Config.provenance = true }
      in
      let r = Fd_core.Infoflow.analyze_apk ~config app in
      let step (node, stmt, fact, kind) =
        String.concat " | " [ node; stmt; fact; kind ]
      in
      let actual (fd : Fd_core.Bidi.finding) =
        List.map
          (fun (w : Fd_core.Bidi.witness_step) ->
            step
              ( Fd_callgraph.Icfg.string_of_node w.Fd_core.Bidi.ws_node,
                w.Fd_core.Bidi.ws_stmt,
                w.Fd_core.Bidi.ws_fact,
                w.Fd_core.Bidi.ws_kind ))
          fd.Fd_core.Bidi.f_witness
      in
      Alcotest.(check (list (list string)))
        (name ^ ": witness steps")
        (List.map (List.map step) expected)
        (List.map actual r.Fd_core.Infoflow.r_findings))
    pinned_witnesses

let () =
  Alcotest.run "fd_witness"
    [
      ( "witnesses",
        [
          Alcotest.test_case "droidbench suite" `Quick
            test_droidbench_witnesses;
          Alcotest.test_case "dynamic agreement" `Quick test_dynamic_agreement;
          Alcotest.test_case "minimized reproducers" `Quick
            test_repro_witnesses;
          Alcotest.test_case "example app" `Quick test_example_app_witnesses;
          Alcotest.test_case "pinned witnesses" `Quick test_pinned_witnesses;
        ] );
    ]
