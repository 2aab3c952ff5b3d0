(* Static vs dynamic, side by side: builds one app with three planted
   behaviours and shows what each analysis sees —

   1. a real leak staged across lifecycle callbacks
      (both find it, the dynamic monitor only under thorough coverage);
   2. an array-index trap
      (the static engine's whole-array model false-alarms, the
      concrete monitor stays silent);
   3. a monitor-evasion probe
      (the dynamic monitor is detected and sees nothing; the static
      engine explores both branches and reports).

   This is the paper's Section 7 TaintDroid discussion as a runnable
   program.   Run with:  dune exec examples/dynamic_monitor.exe *)

open Fd_ir
module B = Build
module T = Types
module FW = Fd_frontend.Framework
module Apk = Fd_frontend.Apk

let cls = "demo.Showcase"
let f_stash = B.fld ~ty:(T.Ref "java.lang.String") cls "stash"

let get_imei m ~tag ret =
  let tm = B.local m (ret.Stmt.l_name ^ "_tm")
      ~ty:(T.Ref "android.telephony.TelephonyManager") in
  B.newobj m tm "android.telephony.TelephonyManager";
  B.vcall m ~tag ~ret tm "android.telephony.TelephonyManager" "getDeviceId" []

let app =
  Apk.make "Showcase"
    ~manifest:(Apk.simple_manifest ~package:"demo" [ (FW.Activity, cls, []) ])
    [
      B.cls cls ~super:"android.app.Activity"
        ~fields:[ ("stash", T.Ref "java.lang.String") ]
        [
          B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
              let this = B.this m in
              let _ = B.param m 0 "b" in
              (* 1. stage the IMEI for the later callback *)
              let x = B.local m "x" in
              get_imei m ~tag:"lifecycle-src" x;
              B.store m this f_stash (B.v x);
              (* 2. the array trap: taint arr[0], leak arr[1] *)
              let arr = B.local m "arr" ~ty:(T.Array (T.Ref "java.lang.String")) in
              let y = B.local m "y" and out = B.local m "out" in
              B.newarray m arr (T.Ref "java.lang.String") (B.i 2);
              B.astore m arr (B.i 1) (B.s "clean");
              get_imei m ~tag:"array-src" y;
              B.astore m arr (B.i 0) (B.v y);
              B.aload m out arr (B.i 1);
              B.scall m ~tag:"array-sink" "android.util.Log" "i"
                [ B.s "arr"; B.v out ];
              (* 3. the evasion probe *)
              let probe = B.local m "probe" ~ty:T.Int in
              let z = B.local m "z" in
              B.scall m ~ret:probe "android.os.Debug" "isDebuggerConnected" [];
              B.ifgoto m (B.v probe) Stmt.Cne (B.i 0) "quiet";
              get_imei m ~tag:"evasive-src" z;
              B.scall m ~tag:"evasive-sink" "android.util.Log" "e"
                [ B.s "evade"; B.v z ];
              B.label m "quiet";
              B.ret m);
          B.meth "onDestroy" (fun m ->
              let this = B.this m in
              let v = B.local m "v" in
              B.load m v this f_stash;
              B.scall m ~tag:"lifecycle-sink" "android.util.Log" "d"
                [ B.s "bye"; B.v v ]);
        ];
    ]

let show title findings =
  Printf.printf "%-34s %s\n" title
    (if findings = [] then "(nothing)"
     else
       String.concat ", "
         (List.map
            (fun (s, k) ->
              Printf.sprintf "%s->%s"
                (Option.value s ~default:"?")
                (Option.value k ~default:"?"))
            findings))

let () =
  print_endline "One app, three behaviours, three observers:\n";
  let static =
    Fd_core.Infoflow.analyze_apk app |> fun r ->
    List.map
      (fun (fd : Fd_core.Bidi.finding) ->
        (fd.Fd_core.Bidi.f_source.Fd_core.Taint.si_tag, fd.Fd_core.Bidi.f_sink_tag))
      r.Fd_core.Infoflow.r_findings
    |> List.sort_uniq compare
  in
  let dynamic coverage =
    Fd_interp.Droid_runner.findings
      (Fd_interp.Droid_runner.run ~coverage (Apk.load_merged [ app ]))
  in
  show "FlowDroid (static):" static;
  show "dynamic monitor (basic driver):" (dynamic Fd_interp.Droid_runner.Basic);
  show "dynamic monitor (thorough):" (dynamic Fd_interp.Droid_runner.Thorough);
  print_newline ();
  print_endline "Reading the result:";
  print_endline
    "  - lifecycle-src->lifecycle-sink: real; static always finds it, the\n\
    \    dynamic monitor only when the driver reaches onDestroy;";
  print_endline
    "  - array-src->array-sink: a false alarm of the static whole-array\n\
    \    model; the concrete monitor correctly stays silent;";
  print_endline
    "  - evasive-src->evasive-sink: real malware behaviour that hides from\n\
    \    the monitor; only the static analysis, which explores both\n\
    \    branches of the probe, reports it."
