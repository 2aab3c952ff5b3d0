(* End-to-end Android tests: the paper's Listing 1 app through the full
   pipeline (manifest, layout, callback discovery, dummy main, taint
   analysis), plus lifecycle/callback unit checks. *)

open Fd_ir
open Fd_core
module B = Build
module T = Types
module FW = Fd_frontend.Framework
module Apk = Fd_frontend.Apk

(* ---------------- the Listing 1 app ---------------- *)

let layout_main =
  {|<?xml version="1.0" encoding="utf-8"?>
<LinearLayout>
  <EditText android:id="@+id/username" android:inputType="text"/>
  <EditText android:id="@+id/pwdString" android:inputType="textPassword"/>
  <Button android:id="@+id/button1" android:onClick="sendMessage"/>
</LinearLayout>|}

(* resource ids are assigned in declaration order *)
let id_username = Fd_frontend.Layout.id_base
let id_pwd = Fd_frontend.Layout.id_base + 1
let layout_id = Fd_frontend.Layout.layout_id_base

let user_cls = "de.ecspride.User"
let pwd_cls = "de.ecspride.Password"
let app_cls = "de.ecspride.LeakageApp"
let f_user = B.fld ~ty:(T.Ref user_cls) app_cls "user"
let f_uname = B.fld ~ty:(T.Ref "java.lang.String") user_cls "name"
let f_upwd = B.fld ~ty:(T.Ref pwd_cls) user_cls "pwd"
let f_pstr = B.fld ~ty:(T.Ref "java.lang.String") pwd_cls "pwdString"

let password_class =
  B.cls pwd_cls
    ~fields:[ ("pwdString", T.Ref "java.lang.String") ]
    [
      B.meth "<init>" ~params:[ T.Ref "java.lang.String" ] (fun m ->
          let this = B.this m in
          let p = B.param m 0 "p" in
          B.store m this f_pstr (B.v p));
      B.meth "getPassword" ~ret:(T.Ref "java.lang.String") (fun m ->
          let this = B.this m in
          let r = B.local m "r" in
          B.load m r this f_pstr;
          B.retv m (B.v r));
    ]

let user_class =
  B.cls user_cls
    ~fields:[ ("name", T.Ref "java.lang.String"); ("pwd", T.Ref pwd_cls) ]
    [
      B.meth "<init>"
        ~params:[ T.Ref "java.lang.String"; T.Ref "java.lang.String" ]
        (fun m ->
          let this = B.this m in
          let n = B.param m 0 "n" in
          let p = B.param m 1 "p" in
          let pw = B.local m "pw" ~ty:(T.Ref pwd_cls) in
          B.store m this f_uname (B.v n);
          B.newc m pw pwd_cls [ B.v p ];
          B.store m this f_upwd (B.v pw));
      B.meth "getName" ~ret:(T.Ref "java.lang.String") (fun m ->
          let this = B.this m in
          let r = B.local m "r" in
          B.load m r this f_uname;
          B.retv m (B.v r));
      B.meth "getpwd" ~ret:(T.Ref pwd_cls) (fun m ->
          let this = B.this m in
          let r = B.local m "r" ~ty:(T.Ref pwd_cls) in
          B.load m r this f_upwd;
          B.retv m (B.v r));
    ]

let leakage_activity =
  B.cls app_cls ~super:"android.app.Activity"
    ~fields:[ ("user", T.Ref user_cls) ]
    [
      B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
          let this = B.this m in
          let _ = B.param m 0 "savedState" in
          B.vcall m this "android.app.Activity" "setContentView"
            [ B.i layout_id ]);
      B.meth "onRestart" (fun m ->
          let this = B.this m in
          let ut = B.local m "usernameText" ~ty:(T.Ref "android.widget.EditText") in
          let pt = B.local m "passwordText" ~ty:(T.Ref "android.widget.EditText") in
          let uname = B.local m "uname" and pwd = B.local m "pwd" in
          let u = B.local m "u" ~ty:(T.Ref user_cls) in
          B.vcall m ~ret:ut this "android.app.Activity" "findViewById"
            [ B.i id_username ];
          B.vcall m ~tag:"src-pwd" ~ret:pt this "android.app.Activity"
            "findViewById" [ B.i id_pwd ];
          B.vcall m ~ret:uname ut "android.widget.EditText" "toString" [];
          B.vcall m ~ret:pwd pt "android.widget.EditText" "toString" [];
          B.ifgoto m (B.v uname) Stmt.Ceq B.nul "out";
          B.newc m u user_cls [ B.v uname; B.v pwd ];
          B.store m this f_user (B.v u);
          B.label m "out";
          B.ret m);
      (* callback declared only in the layout XML *)
      B.meth "sendMessage" ~params:[ T.Ref "android.view.View" ] (fun m ->
          let this = B.this m in
          let _view = B.param m 0 "view" in
          let u = B.local m "u" ~ty:(T.Ref user_cls) in
          let pw = B.local m "pw" ~ty:(T.Ref pwd_cls) in
          let ps = B.local m "ps" in
          let obf = B.local m "obf" in
          let c = B.local m "c" in
          let name = B.local m "name" in
          let msg = B.local m "msg" in
          let sms = B.local m "sms" ~ty:(T.Ref "android.telephony.SmsManager") in
          B.load m u this f_user;
          B.ifgoto m (B.v u) Stmt.Ceq B.nul "out";
          B.vcall m ~ret:pw u user_cls "getpwd" [];
          B.vcall m ~ret:ps pw pwd_cls "getPassword" [];
          B.const m obf (B.s "");
          B.label m "loop";
          (* for (char c : pwdString.toCharArray()) obf += c + "_" *)
          B.vcall m ~ret:c ps "java.lang.String" "charAt" [ B.i 0 ];
          B.binop m obf "+" (B.v obf) (B.v c);
          B.ifgoto m (B.v obf) Stmt.Cne B.nul "loop";
          B.vcall m ~ret:name u user_cls "getName" [];
          B.binop m msg "+" (B.v name) (B.v obf);
          B.scall m ~ret:sms "android.telephony.SmsManager" "getDefault" [];
          B.vcall m ~tag:"sink-sms" sms "android.telephony.SmsManager"
            "sendTextMessage"
            [ B.s "+44 020 7321 0905"; B.nul; B.v msg; B.nul; B.nul ];
          B.label m "out";
          B.ret m);
    ]

let leakage_apk ?(enabled = true) () =
  let manifest =
    Apk.simple_manifest ~package:"de.ecspride"
      [
        ( FW.Activity,
          app_cls,
          if enabled then [] else [ ("android:enabled", "false") ] );
      ]
  in
  Apk.make "LeakageApp" ~manifest
    ~layouts:[ ("activity_main", layout_main) ]
    [ leakage_activity; user_class; password_class ]

let flow_pairs (r : Infoflow.result) =
  List.map
    (fun (fd : Bidi.finding) ->
      ( Option.value fd.Bidi.f_source.Taint.si_tag ~default:"?",
        Option.value fd.Bidi.f_sink_tag ~default:"?" ))
    r.Infoflow.r_findings
  |> List.sort_uniq compare

(* ---------------- pipeline-stage tests ---------------- *)

let test_callback_discovery () =
  let loaded = Apk.load (leakage_apk ()) in
  let ccs = Fd_lifecycle.Callbacks.discover_all loaded in
  match ccs with
  | [ cc ] ->
      Alcotest.(check string) "component" app_cls
        cc.Fd_lifecycle.Callbacks.cc_component;
      let names =
        List.map
          (fun cb ->
            cb.Fd_lifecycle.Callbacks.cb_method.Jclass.jm_sig.T.m_name)
          cc.Fd_lifecycle.Callbacks.cc_callbacks
      in
      Alcotest.(check (list string)) "xml callback found" [ "sendMessage" ] names;
      Alcotest.(check int) "lifecycle entries" 2
        (List.length cc.Fd_lifecycle.Callbacks.cc_lifecycle)
  | _ -> Alcotest.fail "expected exactly one component"

let test_dummy_main_shape () =
  let loaded = Apk.load (leakage_apk ()) in
  let ccs = Fd_lifecycle.Callbacks.discover_all loaded in
  let entry =
    Fd_lifecycle.Dummy_main.generate loaded.Apk.scene ccs
  in
  Alcotest.(check string) "entry class" "dummyMainClass" entry.Fd_callgraph.Mkey.mk_class;
  let dc = Option.get (Scene.find_class loaded.Apk.scene "dummyMainClass") in
  let dm = Option.get (Jclass.find_method_named dc "dummyMain") in
  let body = Option.get dm.Jclass.jm_body in
  let printed = Pretty.body_to_string body in
  let contains needle =
    let n = String.length needle and h = String.length printed in
    let rec go i = i + n <= h && (String.sub printed i n = needle || go (i + 1)) in
    go 0
  in
  (* Figure 1's structure: lifecycle calls present, callback between
     resume and pause *)
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " present") true (contains s))
    [ "onCreate"; "onRestart"; "sendMessage" ];
  (* the app does not implement onPause: it must not be called *)
  Alcotest.(check bool) "no onPause call" false (contains "onPause");
  (* the opaque predicate drives all branching *)
  Alcotest.(check bool) "opaque predicate read" true
    (contains "static dummyMainClass#p")

let test_listing1_end_to_end () =
  let r = Infoflow.analyze_apk (leakage_apk ()) in
  let pairs = flow_pairs r in
  Alcotest.(check (list (pair string string)))
    "password leaks to SMS; username does not"
    [ ("src-pwd", "sink-sms") ]
    pairs

let test_inactive_activity () =
  (* the same app with the activity disabled in the manifest must
     produce no findings (DroidBench's InactiveActivity) *)
  let r = Infoflow.analyze_apk (leakage_apk ~enabled:false ()) in
  Alcotest.(check (list (pair string string))) "no leak when disabled" []
    (flow_pairs r)

let test_lifecycle_off_misses () =
  (* without the lifecycle model, onRestart's write to this.user and
     sendMessage's read are disconnected entry points: the leak is
     missed — the comparator-tool failure mode *)
  let config = { Config.default with Config.lifecycle = false } in
  let r = Infoflow.analyze_apk ~config (leakage_apk ()) in
  Alcotest.(check (list (pair string string))) "missed without lifecycle" []
    (flow_pairs r)

let test_callbacks_off_misses () =
  let config = { Config.default with Config.callbacks = false } in
  let r = Infoflow.analyze_apk ~config (leakage_apk ()) in
  Alcotest.(check (list (pair string string))) "missed without callbacks" []
    (flow_pairs r)

(* ---------------- imperative callback registration ---------------- *)

let button_app () =
  (* activity registers a click listener in code; the listener leaks the
     IMEI stored by onCreate into a field of the activity *)
  let act = "t.BtnActivity" in
  let lst = "t.ClickListener" in
  let f_data = B.fld ~ty:(T.Ref "java.lang.String") act "data" in
  let f_outer = B.fld ~ty:(T.Ref act) lst "outer" in
  let activity =
    B.cls act ~super:"android.app.Activity"
      ~fields:[ ("data", T.Ref "java.lang.String") ]
      [
        B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let this = B.this m in
            let _ = B.param m 0 "b" in
            let tm = B.local m "tm" ~ty:(T.Ref "android.telephony.TelephonyManager") in
            let imei = B.local m "imei" in
            let btn = B.local m "btn" ~ty:(T.Ref "android.widget.Button") in
            let l = B.local m "l" ~ty:(T.Ref lst) in
            B.newobj m tm "android.telephony.TelephonyManager";
            B.vcall m ~tag:"src-imei" ~ret:imei tm
              "android.telephony.TelephonyManager" "getDeviceId" [];
            B.store m this f_data (B.v imei);
            B.vcall m ~ret:btn this "android.app.Activity" "findViewById"
              [ B.i 1 ];
            B.newc m l lst [ B.v this ];
            B.vcall m btn "android.widget.Button" "setOnClickListener" [ B.v l ]);
      ]
  in
  let listener =
    B.cls lst ~interfaces:[ "android.view.View$OnClickListener" ]
      ~fields:[ ("outer", T.Ref act) ]
      [
        B.meth "<init>" ~params:[ T.Ref act ] (fun m ->
            let this = B.this m in
            let o = B.param m 0 "o" in
            B.store m this f_outer (B.v o));
        B.meth "onClick" ~params:[ T.Ref "android.view.View" ] (fun m ->
            let this = B.this m in
            let _ = B.param m 0 "v" in
            let o = B.local m "o" ~ty:(T.Ref act) in
            let d = B.local m "d" in
            B.load m o this f_outer;
            B.load m d o f_data;
            B.scall m ~tag:"sink-log" "android.util.Log" "i"
              [ B.s "TAG"; B.v d ]);
      ]
  in
  let manifest = Apk.simple_manifest ~package:"t" [ (FW.Activity, act, []) ] in
  Apk.make "ButtonApp" ~manifest [ activity; listener ]

let test_imperative_callback_leak () =
  let r = Infoflow.analyze_apk (button_app ()) in
  Alcotest.(check (list (pair string string)))
    "IMEI flows into the registered listener's log"
    [ ("src-imei", "sink-log") ]
    (flow_pairs r)

(* ---------------- location callback parameter source -------------- *)

let location_app () =
  let act = "t.LocActivity" in
  let f_loc = B.fld ~ty:(T.Ref "android.location.Location") act "lastLoc" in
  let activity =
    B.cls act ~super:"android.app.Activity"
      ~interfaces:[ "android.location.LocationListener" ]
      ~fields:[ ("lastLoc", T.Ref "android.location.Location") ]
      [
        B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let this = B.this m in
            let _ = B.param m 0 "b" in
            let lm = B.local m "lm" ~ty:(T.Ref "android.location.LocationManager") in
            B.newobj m lm "android.location.LocationManager";
            B.vcall m lm "android.location.LocationManager"
              "requestLocationUpdates" [ B.v this ]);
        B.meth "onLocationChanged"
          ~params:[ T.Ref "android.location.Location" ] (fun m ->
            let this = B.this m in
            let loc = B.param m 0 "loc" in
            B.store m this f_loc (B.v loc));
        B.meth "onDestroy" (fun m ->
            let this = B.this m in
            let l = B.local m "l" ~ty:(T.Ref "android.location.Location") in
            let lat = B.local m "lat" in
            B.load m l this f_loc;
            B.vcall m ~ret:lat l "android.location.Location" "getLatitude" [];
            B.scall m ~tag:"sink-log" "android.util.Log" "d"
              [ B.s "loc"; B.v lat ]);
      ]
  in
  let manifest = Apk.simple_manifest ~package:"t" [ (FW.Activity, act, []) ] in
  Apk.make "LocApp" ~manifest [ activity ]

let test_location_callback_source () =
  let r = Infoflow.analyze_apk (location_app ()) in
  let sinks = List.map snd (flow_pairs r) in
  Alcotest.(check (list string))
    "location parameter leaks into the log at shutdown"
    [ "sink-log" ] (List.sort_uniq compare sinks)

(* the resource id reaches findViewById through a local, not an
   immediate constant: resolved by the straight-line constant
   propagation (Jimple-style) *)
let indirect_id_app () =
  let cls = "t.IndirectId" in
  let layout =
    {|<LinearLayout><EditText android:id="@+id/pw" android:inputType="textPassword"/></LinearLayout>|}
  in
  let activity =
    B.cls cls ~super:"android.app.Activity"
      [
        B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let this = B.this m in
            let _ = B.param m 0 "b" in
            let id = B.local m "id" ~ty:T.Int in
            let et = B.local m "et" ~ty:(T.Ref "android.widget.EditText") in
            let p = B.local m "p" in
            B.const m id (B.i Fd_frontend.Layout.id_base);
            B.vcall m ~tag:"src-pw" ~ret:et this "android.app.Activity"
              "findViewById" [ B.v id ];
            B.vcall m ~ret:p et "android.widget.EditText" "toString" [];
            B.scall m ~tag:"sink-log" "android.util.Log" "i"
              [ B.s "t"; B.v p ]);
      ]
  in
  Apk.make "IndirectId"
    ~manifest:(Apk.simple_manifest ~package:"t" [ (FW.Activity, cls, []) ])
    ~layouts:[ ("main", layout) ]
    [ activity ]

let test_indirect_resource_id () =
  let r = Infoflow.analyze_apk (indirect_id_app ()) in
  Alcotest.(check (list (pair string string)))
    "constant-propagated id is a source"
    [ ("src-pw", "sink-log") ]
    (flow_pairs r)

let test_budget_exhaustion_static () =
  (* a tiny propagation budget: the engine stops and reports the
     exhaustion instead of looping *)
  let config = { Config.default with Config.max_propagations = 50 } in
  let r = Infoflow.analyze_apk ~config (leakage_apk ()) in
  Alcotest.(check string) "budget flagged" "budget-exhausted"
    (Fd_resilience.Outcome.to_string r.Infoflow.r_stats.Infoflow.st_outcome)

(* ---------------- budget-truncated solves ---------------- *)

(* a depth-[depth] static chain: each step stores the taint in a heap
   cell and reads it back (alias work for the backward solver) before
   forwarding it to the next step *)
let chain_apk ~depth =
  let step i =
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : chain.Box;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new chain.Box;\n\
      \    specialinvoke b.chain.Box#<init>();\n\
      \    b.chain.Box#val = p;\n\
      \    t = b.chain.Box#val;\n\
       %s\
      \    return t;\n\
      \  }\n"
      i
      (if i = depth - 1 then ""
       else Printf.sprintf "    t = staticinvoke chain.Chain#step%d(t);\n" (i + 1))
  in
  let box =
    "class chain.Box {\n\
    \  field val : java.lang.String;\n\
    \  method void <init>() {\n\
    \    this := @this: chain.Box;\n\
    \    return;\n\
    \  }\n\
     }\n"
  in
  let activity =
    "class chain.App extends android.app.Activity {\n\
    \  method void onCreate(android.os.Bundle) {\n\
    \    local s : java.lang.Object;\n\
    \    local tm : android.telephony.TelephonyManager;\n\
    \    local imei : java.lang.Object;\n\
    \    local out : java.lang.Object;\n\
    \    local sms : android.telephony.SmsManager;\n\
    \    this := @this: chain.App;\n\
    \    s := @parameter0;\n\
    \    tm = new android.telephony.TelephonyManager;\n\
    \    imei = virtualinvoke \
     tm.android.telephony.TelephonyManager#getDeviceId() @\"src-imei\";\n\
    \    out = staticinvoke chain.Chain#step0(imei);\n\
    \    sms = staticinvoke android.telephony.SmsManager#getDefault();\n\
    \    virtualinvoke \
     sms.android.telephony.SmsManager#sendTextMessage(\"+1\", null, out, \
     null, null) @\"sink-sms\";\n\
    \    return;\n\
    \  }\n\
     }\n"
  in
  let manifest =
    "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n\
     <manifest package=\"chain\"><application>\n\
     <activity android:name=\"chain.App\"><intent-filter>\n\
     <action android:name=\"android.intent.action.MAIN\"/>\n\
     <category android:name=\"android.intent.category.LAUNCHER\"/>\n\
     </intent-filter></activity>\n\
     </application></manifest>\n"
  in
  Apk.make_text "ChainApp" ~manifest ~layouts:[]
    [ box;
      "class chain.Chain {\n" ^ String.concat "" (List.init depth step) ^ "}\n";
      activity ]

(* malformed input: a superclass cycle between two classes that
   declare no method, and a virtual call on one of them.  Callback
   discovery and the dummy main resolve methods on it; the analysis
   must come back with no finding. *)
let test_superclass_cycle () =
  let manifest =
    "<manifest package=\"c\"><application>\n\
     <activity android:name=\"c.Main\"/>\n\
     </application></manifest>\n"
  in
  let main =
    "class c.Main extends android.app.Activity {\n\
    \  method void onCreate(android.os.Bundle) {\n\
    \    local b : android.os.Bundle;\n\
    \    local a : c.A;\n\
    \    this := @this: c.Main;\n\
    \    b := @parameter0;\n\
    \    a = new c.A;\n\
    \    virtualinvoke a.c.A#m();\n\
    \    return;\n\
    \  }\n\
     }\n"
  in
  let apk =
    Apk.make_text "CycleApp" ~manifest
      [ "class c.A extends c.B {\n}\n"; "class c.B extends c.A {\n}\n"; main ]
  in
  Alcotest.(check (list (pair string string))) "no finding" []
    (flow_pairs (Infoflow.analyze_apk apk))

(* what a budget-stopped solve leaves behind: the outcome, the
   propagations ticked, the dedup hits, the sorted findings and the
   taints recorded at the sink node (as a digest of their sorted
   renderings, with their count) *)
type truncated = {
  tr_outcome : string;
  tr_props : int;
  tr_dedup : int;
  tr_findings : string list;
  tr_sink_taints : int * string;
}

(* [unpruned r] solves [r]'s program again without the dead-local
   rule, which keeps every taint on a dead local (see [Bidi.create]) *)
let unpruned (r : Infoflow.result) =
  let e = Bidi.fresh ~prune_dead:false r.Infoflow.r_engine in
  Bidi.run e ~entries:r.Infoflow.r_entries;
  e

let observe_truncated ~prune_dead apk budget =
  let sink =
    match (Infoflow.analyze_apk apk).Infoflow.r_findings with
    | fd :: _ -> fd.Bidi.f_sink_node
    | [] -> Alcotest.fail "the unbudgeted solve must find the leak"
  in
  let config = { Config.default with Config.max_propagations = budget } in
  let dedup () = Fd_obs.Metrics.counter_value "ifds.worklist_dedup_hits" in
  let dedup0 = dedup () in
  let r = Infoflow.analyze_apk ~config apk in
  let engine, dedup0 =
    if prune_dead then (r.Infoflow.r_engine, dedup0)
    else
      let d = dedup () in
      (unpruned r, d)
  in
  let dedup_hits = dedup () - dedup0 in
  let taints =
    List.sort compare
      (List.map Taint.to_string (Bidi.results_at engine sink))
  in
  {
    tr_outcome = Fd_resilience.Outcome.to_string (Bidi.outcome engine);
    tr_props = Bidi.propagation_count engine;
    tr_dedup = dedup_hits;
    tr_findings =
      List.sort compare
        (List.map
           (fun (fd : Bidi.finding) ->
             let node = Fd_callgraph.Icfg.string_of_node in
             Printf.sprintf "%s -> %s"
               (node fd.Bidi.f_source.Taint.si_node)
               (node fd.Bidi.f_sink_node))
           (Bidi.findings engine));
    tr_sink_taints =
      ( List.length taints,
        Digest.to_hex (Digest.string (String.concat "\n" taints)) );
  }

(* leakage's one finding *)
let leak = "de.ecspride.LeakageApp.onRestart/0@2 -> \
            de.ecspride.LeakageApp.sendMessage/1@13"

(* reference values: the solver's probe -> tick -> insert order and
   its FIFO worklist order decide exactly what a stopped solve has
   seen, so a change to the solver's tables must reproduce them.
   These are the solver's without the dead-local rule, whose dropped
   taints tick no budget; [expected_truncated] below are with it. *)
let expected_truncated_unpruned =
  [
    ( "leakage", 50,
      { tr_outcome = "budget-exhausted"; tr_props = 51; tr_dedup = 4;
        tr_findings = [];
        tr_sink_taints = (0, "d41d8cd98f00b204e9800998ecf8427e") } );
    ( "leakage", 1000,
      { tr_outcome = "budget-exhausted"; tr_props = 1001; tr_dedup = 170;
        tr_findings = [ leak ];
        tr_sink_taints = (30, "dc43fedc08a353201b35ee75ebaf2082") } );
    (* every budget from 1 to 4399 was probed on leakage (it completes
       after 4388 propagations here, 4081 with the rule): an insert
       before the tick, which counts a propagation that re-derives an
       edge after the budget stopped as a dedup hit, reads differently
       at 59 budgets here and 46 with the rule, none shared.  3662
       catches it with the rule (902), 3921 without it (968) *)
    ( "leakage", 3662,
      { tr_outcome = "budget-exhausted"; tr_props = 3663; tr_dedup = 879;
        tr_findings = [ leak ];
        tr_sink_taints = (57, "ae9eb8319e930acc84f3cb1d877a42d0") } );
    ( "leakage", 3921,
      { tr_outcome = "budget-exhausted"; tr_props = 3922; tr_dedup = 967;
        tr_findings = [ leak ];
        tr_sink_taints = (57, "ae9eb8319e930acc84f3cb1d877a42d0") } );
    ( "chain-100", 50,
      { tr_outcome = "budget-exhausted"; tr_props = 51; tr_dedup = 0;
        tr_findings = [];
        tr_sink_taints = (1, "6fbbfd045ce44f13874ecb499d218455") } );
    ( "chain-100", 1000,
      { tr_outcome = "budget-exhausted"; tr_props = 1001; tr_dedup = 0;
        tr_findings = [];
        tr_sink_taints = (1, "6fbbfd045ce44f13874ecb499d218455") } );
    (* the whole chain: one context per step method *)
    ( "chain-100", 5000,
      { tr_outcome = "complete"; tr_props = 2008; tr_dedup = 100;
        tr_findings = [ "chain.App.onCreate/1@3 -> chain.App.onCreate/1@6" ];
        tr_sink_taints = (2, "4d80997023324ce70ede749ec8c45230") } );
  ]

(* with the dead-local rule: the same findings at the same budgets
   except chain-100 at 1000, which gets further; the rule drops
   taints at the sink, and chain-100 completes in fewer propagations *)
let expected_truncated =
  [
    ( "leakage", 50,
      { tr_outcome = "budget-exhausted"; tr_props = 51; tr_dedup = 4;
        tr_findings = [];
        tr_sink_taints = (0, "d41d8cd98f00b204e9800998ecf8427e") } );
    ( "leakage", 1000,
      { tr_outcome = "budget-exhausted"; tr_props = 1001; tr_dedup = 176;
        tr_findings = [ leak ];
        tr_sink_taints = (26, "e44536a461359fa7e441026212141bd4") } );
    ( "leakage", 3662,
      { tr_outcome = "budget-exhausted"; tr_props = 3663; tr_dedup = 901;
        tr_findings = [ leak ];
        tr_sink_taints = (50, "3e444a410c6711409a40a8da0dc996b0") } );
    ( "leakage", 3921,
      { tr_outcome = "budget-exhausted"; tr_props = 3922; tr_dedup = 985;
        tr_findings = [ leak ];
        tr_sink_taints = (50, "3e444a410c6711409a40a8da0dc996b0") } );
    ( "chain-100", 50,
      { tr_outcome = "budget-exhausted"; tr_props = 51; tr_dedup = 0;
        tr_findings = [];
        tr_sink_taints = (0, "d41d8cd98f00b204e9800998ecf8427e") } );
    ( "chain-100", 1000,
      { tr_outcome = "budget-exhausted"; tr_props = 1001; tr_dedup = 0;
        tr_findings = [ "chain.App.onCreate/1@3 -> chain.App.onCreate/1@6" ];
        tr_sink_taints = (1, "c68271a63ddbc431c307beb7d2918275") } );
    ( "chain-100", 5000,
      { tr_outcome = "complete"; tr_props = 1506; tr_dedup = 100;
        tr_findings = [ "chain.App.onCreate/1@3 -> chain.App.onCreate/1@6" ];
        tr_sink_taints = (1, "c68271a63ddbc431c307beb7d2918275") } );
  ]

let test_truncated_solves ~prune_dead expected () =
  let apps =
    [ ("leakage", fun () -> leakage_apk ());
      ("chain-100", fun () -> chain_apk ~depth:100) ]
  in
  List.iter
    (fun (name, budget, want) ->
      let got =
        observe_truncated ~prune_dead ((List.assoc name apps) ()) budget
      in
      let what field = Printf.sprintf "%s at %d: %s" name budget field in
      Alcotest.(check string) (what "outcome") want.tr_outcome got.tr_outcome;
      Alcotest.(check int) (what "propagations") want.tr_props got.tr_props;
      Alcotest.(check int) (what "dedup hits") want.tr_dedup got.tr_dedup;
      Alcotest.(check (list string))
        (what "findings") want.tr_findings got.tr_findings;
      Alcotest.(check (pair int string))
        (what "taints at the sink") want.tr_sink_taints got.tr_sink_taints)
    expected

(* ---------------- results_at order ---------------- *)

(* every statement of every reachable method, in node order, with the
   taints [results_at] gives there, unsorted: the ICC tier keeps the
   first taint it meets per source, so the order is part of the
   contract.  Also the nodes where a taint is repeated.  [keep]
   restricts the listing to the nodes of some methods. *)
let results_listing ?(keep = fun _ -> true) (r : Infoflow.result) engine =
  let cg = r.Infoflow.r_icfg.Fd_callgraph.Icfg.cg in
  let nodes =
    List.concat_map
      (fun m ->
        match Fd_callgraph.Callgraph.body_of cg m with
        | body ->
            List.init (Body.length body) (fun i ->
                Fd_callgraph.Icfg.{ n_method = m; n_idx = i })
        | exception Not_found -> [])
      (List.filter keep (Fd_callgraph.Callgraph.reachable_methods cg))
    |> List.sort Fd_callgraph.Icfg.compare_node
  in
  let repeated = ref [] and count = ref 0 in
  let lines =
    List.concat_map
      (fun n ->
        let where = Fd_callgraph.Icfg.string_of_node n in
        let taints =
          List.map Taint.to_string (Bidi.results_at engine n)
        in
        if List.length (List.sort_uniq compare taints) <> List.length taints
        then repeated := where :: !repeated;
        count := !count + List.length taints;
        where :: taints)
      nodes
  in
  (lines, !count, !repeated)

(* reference values: (taint count, digest of the listing), without the
   dead-local rule; [expected_results_order] below are with it *)
let expected_results_order_unpruned =
  [
    ("leakage", (1374, "bd099f5484b469c576cd3fc82416fa9c"));
    ("chain-10", (154, "e4d4c503c098229b48544bf193121513"));
    ("icc-pair", (12, "f063a44b5379fff405ba08d3d0989008"));
  ]

(* the same listing over the app methods alone: it does not depend on
   how the dummy main is shaped *)
let outside_dummy_main (m : Fd_callgraph.Mkey.t) =
  m.Fd_callgraph.Mkey.mk_class <> "dummyMainClass"

let expected_app_results_order_unpruned =
  [ ("icc-pair", (12, "3a2d7edf1acd1669d66a10690b79ac77")) ]

(* with the dead-local rule: each listing is the unpruned one less
   the taints on dead locals (the property in test_properties) *)
let expected_results_order =
  [
    ("leakage", (1303, "4a64534fdb09fe5fe4d7a351411d7f6e"));
    ("chain-10", (102, "ea1fc8db3ac2918219e8e97238892317"));
    ("icc-pair", (7, "a4b1d9794062bfb5dc300549c631c240"));
  ]

let expected_app_results_order =
  [ ("icc-pair", (7, "32339559ca274d74f5fa6c1f9831a673")) ]

let test_results_order ~prune_dead (expected, expected_app) () =
  let icc = { Config.default with Config.icc = true } in
  let runs =
    [
      ("leakage", fun () -> Infoflow.analyze_apk (leakage_apk ()));
      ("chain-10", fun () -> Infoflow.analyze_apk (chain_apk ~depth:10));
      ( "icc-pair",
        fun () ->
          let gp = Fd_appgen.Generator.collusion_pair ~seed:7 0 in
          Infoflow.analyze_merged ~config:icc
            (Fd_frontend.Apk.load_merged
               [
                 gp.Fd_appgen.Generator.gp_sender.Fd_appgen.Generator.ga_apk;
                 gp.Fd_appgen.Generator.gp_receiver.Fd_appgen.Generator.ga_apk;
               ]) );
    ]
  in
  let unreached =
    Fd_callgraph.Icfg.
      {
        n_method =
          { Fd_callgraph.Mkey.mk_class = "no.Such"; mk_name = "m"; mk_arity = 0 };
        n_idx = 0;
      }
  in
  List.iter
    (fun (name, run) ->
      let r = run () in
      let engine = if prune_dead then r.Infoflow.r_engine else unpruned r in
      let lines, count, repeated = results_listing r engine in
      Alcotest.(check (pair int string))
        (name ^ ": taints per node, in results_at order")
        (List.assoc name expected)
        (count, Digest.to_hex (Digest.string (String.concat "\n" lines)));
      Alcotest.(check (list string)) (name ^ ": nodes with a repeated taint")
        [] repeated;
      Option.iter
        (fun want ->
          let lines, count, _ =
            results_listing ~keep:outside_dummy_main r engine
          in
          Alcotest.(check (pair int string))
            (name ^ ": app-method taints, in results_at order")
            want
            (count, Digest.to_hex (Digest.string (String.concat "\n" lines))))
        (List.assoc_opt name expected_app);
      Alcotest.(check (list string))
        (name ^ ": no zero fact") []
        (List.filter (fun l -> l = Taint.fact_to_string Taint.Zero) lines);
      Alcotest.(check int)
        (name ^ ": unreached node") 0
        (List.length (Bidi.results_at engine unreached)))
    runs

let () =
  Alcotest.run "fd_android"
    [
      ( "pipeline",
        [
          Alcotest.test_case "callback discovery" `Quick test_callback_discovery;
          Alcotest.test_case "dummy main (Figure 1)" `Quick test_dummy_main_shape;
        ] );
      ( "listing1",
        [
          Alcotest.test_case "end to end" `Quick test_listing1_end_to_end;
          Alcotest.test_case "inactive activity" `Quick test_inactive_activity;
          Alcotest.test_case "no lifecycle -> miss" `Quick
            test_lifecycle_off_misses;
          Alcotest.test_case "no callbacks -> miss" `Quick
            test_callbacks_off_misses;
        ] );
      ( "callbacks",
        [
          Alcotest.test_case "imperative registration" `Quick
            test_imperative_callback_leak;
          Alcotest.test_case "location parameter source" `Quick
            test_location_callback_source;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "indirect resource id" `Quick
            test_indirect_resource_id;
          Alcotest.test_case "propagation budget" `Quick
            test_budget_exhaustion_static;
          Alcotest.test_case "budget-truncated solves are pinned" `Quick
            (test_truncated_solves ~prune_dead:true expected_truncated);
          Alcotest.test_case "budget-truncated solves are pinned (unpruned)"
            `Quick
            (test_truncated_solves ~prune_dead:false
               expected_truncated_unpruned);
          Alcotest.test_case "results_at order is pinned" `Quick
            (test_results_order ~prune_dead:true
               (expected_results_order, expected_app_results_order));
          Alcotest.test_case "results_at order is pinned (unpruned)" `Quick
            (test_results_order ~prune_dead:false
               ( expected_results_order_unpruned,
                 expected_app_results_order_unpruned ));
          Alcotest.test_case "superclass cycle terminates" `Quick
            test_superclass_cycle;
        ] );
    ]
