(* Tests for the µJimple interpreter and the TaintDroid-sim dynamic
   analysis: concrete semantics, dynamic taint precision (where the
   static analysis over-approximates), coverage sensitivity, and the
   monitor-evasion behaviour from the paper's Section 7. *)

open Fd_ir
open Fd_interp
module B = Build
module T = Types
module FW = Fd_frontend.Framework
module Apk = Fd_frontend.Apk

let load apk = Apk.load_merged [ apk ]

let dynamic ?(coverage = Droid_runner.Thorough) apk =
  Droid_runner.findings (Droid_runner.run ~coverage (load apk))

let simple_activity name body =
  let cls = "dyn." ^ name in
  ( cls,
    Apk.make name
      ~manifest:(Apk.simple_manifest ~package:"dyn" [ (FW.Activity, cls, []) ])
      [
        B.cls cls ~super:"android.app.Activity"
          [
            B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
                let this = B.this m in
                let _ = B.param m 0 "b" in
                body m this);
          ];
      ] )

let get_imei m ?(tag = "src") ret =
  let tm = B.local m "tm" ~ty:(T.Ref "android.telephony.TelephonyManager") in
  B.newobj m tm "android.telephony.TelephonyManager";
  B.vcall m ~tag ~ret tm "android.telephony.TelephonyManager" "getDeviceId" []

let log_sink m ?(tag = "snk") v =
  B.scall m ~tag "android.util.Log" "i" [ B.s "t"; v ]

(* ---------------- concrete execution & propagation ---------------- *)

let test_direct_dynamic_leak () =
  let _, apk =
    simple_activity "Direct" (fun m _this ->
        let x = B.local m "x" in
        get_imei m x;
        log_sink m (B.v x))
  in
  Alcotest.(check (list (pair (option string) (option string))))
    "one dynamic leak"
    [ (Some "src", Some "snk") ]
    (dynamic apk)

let test_dynamic_strong_update () =
  (* overwritten local: the dynamic monitor correctly stays silent *)
  let _, apk =
    simple_activity "Strong" (fun m _this ->
        let x = B.local m "x" in
        get_imei m x;
        B.const m x (B.s "clean");
        log_sink m (B.v x))
  in
  Alcotest.(check int) "no leak after overwrite" 0 (List.length (dynamic apk))

let test_dynamic_array_precision () =
  (* the ArrayAccess trap: static reports, dynamic does not *)
  let _, apk =
    simple_activity "Arr" (fun m _this ->
        let arr = B.local m "arr" ~ty:(T.Array (T.Ref "java.lang.String")) in
        let x = B.local m "x" and y = B.local m "y" in
        B.newarray m arr (T.Ref "java.lang.String") (B.i 2);
        B.astore m arr (B.i 1) (B.s "clean");
        get_imei m x;
        B.astore m arr (B.i 0) (B.v x);
        B.aload m y arr (B.i 1);
        log_sink m (B.v y))
  in
  Alcotest.(check int) "per-cell precision: silent" 0 (List.length (dynamic apk))

let test_dynamic_heap_flow () =
  let cls = "dyn.Heap" in
  let f = B.fld cls "stash" in
  let apk =
    Apk.make "Heap"
      ~manifest:(Apk.simple_manifest ~package:"dyn" [ (FW.Activity, cls, []) ])
      [
        B.cls cls ~super:"android.app.Activity"
          ~fields:[ ("stash", T.Ref "java.lang.String") ]
          [
            B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
                let this = B.this m in
                let _ = B.param m 0 "b" in
                let x = B.local m "x" in
                get_imei m x;
                B.store m this f (B.v x));
            B.meth "onDestroy" (fun m ->
                let this = B.this m in
                let y = B.local m "y" in
                B.load m y this f;
                log_sink m (B.v y));
          ];
      ]
  in
  (* the store happens in onCreate, the leak in onDestroy: found under
     thorough coverage, missed under basic *)
  Alcotest.(check int) "thorough finds it" 1 (List.length (dynamic apk));
  Alcotest.(check int) "basic misses it" 0
    (List.length (dynamic ~coverage:Droid_runner.Basic apk))

let test_dynamic_concrete_branching () =
  (* only the actually-executed branch leaks: 5 % 2 <> 0 selects the
     clean branch at runtime *)
  let _, apk =
    simple_activity "Branch" (fun m _this ->
        let x = B.local m "x" and y = B.local m "y" in
        let c = B.local m "c" ~ty:T.Int in
        get_imei m x;
        B.binop m c "%" (B.i 5) (B.i 2);
        B.ifgoto m (B.v c) Stmt.Cne (B.i 0) "clean";
        B.move m y x;
        B.goto m "send";
        B.label m "clean";
        B.const m y (B.s "benign");
        B.label m "send";
        log_sink m (B.v y))
  in
  Alcotest.(check int) "runtime path is the clean one" 0
    (List.length (dynamic apk))

let test_dynamic_stringbuilder () =
  let _, apk =
    simple_activity "Sb" (fun m _this ->
        let x = B.local m "x" and sb = B.local m "sb" and out = B.local m "out" in
        get_imei m x;
        B.newc m sb "java.lang.StringBuilder" [];
        B.vcall m sb "java.lang.StringBuilder" "append" [ B.s "id=" ];
        B.vcall m sb "java.lang.StringBuilder" "append" [ B.v x ];
        B.vcall m ~ret:out sb "java.lang.StringBuilder" "toString" [];
        log_sink m (B.v out))
  in
  Alcotest.(check int) "taint through the buffer" 1 (List.length (dynamic apk))

let test_dynamic_map_key_precision () =
  (* distinct map keys: static's whole-container model reports, the
     concrete map does not *)
  let _, apk =
    simple_activity "MapKeys" (fun m _this ->
        let h = B.local m "h" ~ty:(T.Ref "java.util.HashMap") in
        let x = B.local m "x" and z = B.local m "z" in
        B.newc m h "java.util.HashMap" [];
        get_imei m x;
        B.vcall m h "java.util.HashMap" "put" [ B.s "dirty"; B.v x ];
        B.vcall m h "java.util.HashMap" "put" [ B.s "clean"; B.s "ok" ];
        B.vcall m ~ret:z h "java.util.HashMap" "get" [ B.s "clean" ];
        log_sink m (B.v z))
  in
  Alcotest.(check int) "concrete keys: silent" 0 (List.length (dynamic apk))

let test_dynamic_intent_contents () =
  (* tainted extra inside an intent: the monitor inspects the parcel *)
  let _, apk =
    simple_activity "IntentSend" (fun m this ->
        let i = B.local m "i" ~ty:(T.Ref "android.content.Intent") in
        let x = B.local m "x" in
        B.newc m i "android.content.Intent" [];
        get_imei m x;
        B.vcall m i "android.content.Intent" "putExtra" [ B.s "id"; B.v x ];
        B.vcall m ~tag:"snk" this "android.app.Activity" "startActivity"
          [ B.v i ])
  in
  Alcotest.(check int) "deep labels at the send" 1 (List.length (dynamic apk))

let test_static_initializer_dynamic () =
  (* StaticInitialization1: the dynamic semantics run <clinit> at first
     use, so the leak is observed (the static analysis misses it) *)
  let cls = "dyn.ClinitApp" in
  let helper = "dyn.ClinitHelper" in
  let g = B.fld ~ty:(T.Ref "java.lang.String") cls "im" in
  let apk =
    Apk.make "ClinitApp"
      ~manifest:(Apk.simple_manifest ~package:"dyn" [ (FW.Activity, cls, []) ])
      [
        B.cls helper
          [
            B.meth "<clinit>" ~static:true (fun m ->
                let v = B.local m "v" in
                B.loadstatic m v g;
                log_sink m ~tag:"snk-clinit" (B.v v));
          ];
        B.cls cls ~super:"android.app.Activity"
          [
            B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
                let _this = B.this m in
                let _ = B.param m 0 "b" in
                let x = B.local m "x" in
                let h = B.local m "h" ~ty:(T.Ref helper) in
                get_imei m x;
                B.storestatic m g (B.v x);
                B.newobj m h helper);
          ];
      ]
  in
  Alcotest.(check (list (pair (option string) (option string))))
    "clinit-at-first-use observes the leak"
    [ (Some "src", Some "snk-clinit") ]
    (dynamic apk)

(* ---------------- the evasion demo (Section 7) ---------------- *)

let evasive_apk () =
  (* malware that probes for the monitor and stays clean when watched:
     the dynamic analysis sees nothing, the static analysis explores
     both branches and reports the leak *)
  let cls = "dyn.Evasive" in
  let apk =
    Apk.make "Evasive"
      ~manifest:(Apk.simple_manifest ~package:"dyn" [ (FW.Activity, cls, []) ])
      [
        B.cls cls ~super:"android.app.Activity"
          [
            B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
                let _this = B.this m in
                let _ = B.param m 0 "b" in
                let probe = B.local m "probe" ~ty:T.Int in
                let x = B.local m "x" in
                B.scall m ~ret:probe "android.os.Debug" "isDebuggerConnected" [];
                B.ifgoto m (B.v probe) Stmt.Cne (B.i 0) "quiet";
                get_imei m x;
                log_sink m (B.v x);
                B.label m "quiet";
                B.ret m);
          ];
      ]
  in
  apk

let test_evasion () =
  let apk = evasive_apk () in
  (* the dynamic monitor is detected: no leak observed *)
  Alcotest.(check int) "dynamic sees nothing (evaded)" 0
    (List.length (dynamic apk));
  (* the static analysis covers both branches *)
  let result = Fd_core.Infoflow.analyze_apk apk in
  Alcotest.(check int) "static still reports the leak" 1
    (List.length result.Fd_core.Infoflow.r_findings)

(* ---------------- suite-level regression ---------------- *)

let test_dynamic_suite_totals () =
  let t = Fd_eval.Dynamic_table.run () in
  let stp, sfp, sfn = Fd_eval.Dynamic_table.totals (fun r -> r.Fd_eval.Dynamic_table.dr_static) t in
  let btp, bfp, _ = Fd_eval.Dynamic_table.totals (fun r -> r.Fd_eval.Dynamic_table.dr_basic) t in
  let ttp, tfp, tfn = Fd_eval.Dynamic_table.totals (fun r -> r.Fd_eval.Dynamic_table.dr_thorough) t in
  Alcotest.(check (list int)) "static 26/4/2" [ 26; 4; 2 ] [ stp; sfp; sfn ];
  (* the dynamic monitor never false-alarms *)
  Alcotest.(check int) "basic: zero FPs" 0 bfp;
  Alcotest.(check int) "thorough: zero FPs" 0 tfp;
  (* coverage is the bottleneck *)
  Alcotest.(check bool) "basic recall far below static" true (btp * 2 < stp * 2 - 10);
  Alcotest.(check (list int)) "thorough 27/0/1" [ 27; 0; 1 ] [ ttp; tfp; tfn ]

let test_budget_exhaustion () =
  (* a diverging loop hits the step budget instead of hanging *)
  let cls = "dyn.Spin" in
  let apk =
    Apk.make "Spin"
      ~manifest:(Apk.simple_manifest ~package:"dyn" [ (FW.Activity, cls, []) ])
      [
        B.cls cls ~super:"android.app.Activity"
          [
            B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
                let _this = B.this m in
                let _ = B.param m 0 "b" in
                B.label m "spin";
                B.nop m;
                B.goto m "spin");
          ];
      ]
  in
  let leaks = Droid_runner.run ~max_steps:10_000 (load apk) in
  Alcotest.(check int) "terminates with no leaks" 0 (List.length leaks)

(* extension features: the dynamic driver fires async tasks and
   fragment lifecycles under thorough coverage *)
let test_dynamic_extension_features () =
  List.iter
    (fun name ->
      let app = Option.get (Fd_droidbench.Suite.find name) in
      let fs = dynamic app.Fd_droidbench.Bench_app.app_apk in
      Alcotest.(check int) (name ^ " observed dynamically") 1 (List.length fs))
    [ "AsyncTask1"; "FragmentLifecycle1" ]

(* ---------------- plain programs (SecuriBench-style) -------------- *)

let securibench_dynamic name =
  let case =
    List.find
      (fun c -> c.Fd_securibench.Sb_case.sb_name = name)
      Fd_securibench.Sb_suite.all
  in
  let defs =
    Fd_frontend.Sourcesink.of_string
      Fd_securibench.Sb_case.sources_sinks_config
  in
  Droid_runner.findings
    (Droid_runner.run_plain ~classes:case.Fd_securibench.Sb_case.sb_classes
       ~entries:case.Fd_securibench.Sb_case.sb_entries ~defs ())

let test_plain_dynamic_basic () =
  Alcotest.(check (list (pair (option string) (option string))))
    "Basic1 observed dynamically"
    [ (Some "s", Some "k") ]
    (securibench_dynamic "Basic1")

let test_plain_dynamic_array_precision () =
  (* Arrays1 statically reports 1 TP + 1 FP (whole-array); the monitor
     sees only the real leak *)
  Alcotest.(check (list (pair (option string) (option string))))
    "Arrays1: only the true leak"
    [ (Some "s", Some "k") ]
    (securibench_dynamic "Arrays1")

let test_plain_dynamic_strong_updates () =
  Alcotest.(check int) "StrongUpdates1 silent" 0
    (List.length (securibench_dynamic "StrongUpdates1"))

let () =
  Alcotest.run "fd_interp"
    [
      ( "semantics",
        [
          Alcotest.test_case "direct leak" `Quick test_direct_dynamic_leak;
          Alcotest.test_case "strong update" `Quick test_dynamic_strong_update;
          Alcotest.test_case "array precision" `Quick test_dynamic_array_precision;
          Alcotest.test_case "heap flow across lifecycle" `Quick
            test_dynamic_heap_flow;
          Alcotest.test_case "concrete branching" `Quick
            test_dynamic_concrete_branching;
          Alcotest.test_case "string builder" `Quick test_dynamic_stringbuilder;
          Alcotest.test_case "map key precision" `Quick
            test_dynamic_map_key_precision;
          Alcotest.test_case "intent contents" `Quick test_dynamic_intent_contents;
          Alcotest.test_case "clinit at first use" `Quick
            test_static_initializer_dynamic;
          Alcotest.test_case "budget" `Quick test_budget_exhaustion;
        ] );
      ( "tradeoffs",
        [
          Alcotest.test_case "monitor evasion" `Quick test_evasion;
          Alcotest.test_case "DroidBench totals" `Slow test_dynamic_suite_totals;
          Alcotest.test_case "extension features" `Quick
            test_dynamic_extension_features;
        ] );
      ( "plain-programs",
        [
          Alcotest.test_case "securibench Basic1" `Quick test_plain_dynamic_basic;
          Alcotest.test_case "array precision" `Quick
            test_plain_dynamic_array_precision;
          Alcotest.test_case "strong updates" `Quick
            test_plain_dynamic_strong_updates;
        ] );
    ]
