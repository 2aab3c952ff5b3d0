(* Tests for the Android frontend: manifest parsing, layout parsing,
   the source/sink configuration format, and the rules format. *)

open Fd_frontend
module X = Fd_xml.Xml

(* ---------------- manifest ---------------- *)

let manifest_src =
  {|<?xml version="1.0" encoding="utf-8"?>
<manifest package="de.ecspride">
  <uses-permission android:name="android.permission.SEND_SMS"/>
  <uses-permission android:name="android.permission.INTERNET"/>
  <application android:label="Leak">
    <activity android:name=".MainActivity">
      <intent-filter>
        <action android:name="android.intent.action.MAIN"/>
        <category android:name="android.intent.category.LAUNCHER"/>
      </intent-filter>
    </activity>
    <activity android:name="de.ecspride.Second" android:enabled="false"/>
    <service android:name=".Worker"/>
    <receiver android:name=".BootListener" android:exported="true">
      <intent-filter>
        <action android:name="android.intent.action.BOOT_COMPLETED"/>
      </intent-filter>
    </receiver>
  </application>
</manifest>|}

let test_manifest_parse () =
  let m = Manifest.parse manifest_src in
  Alcotest.(check string) "package" "de.ecspride" m.Manifest.package;
  Alcotest.(check int) "4 components" 4 (List.length m.Manifest.components);
  Alcotest.(check int) "3 enabled" 3 (List.length (Manifest.enabled_components m));
  Alcotest.(check (list string))
    "permissions"
    [ "android.permission.SEND_SMS"; "android.permission.INTERNET" ]
    m.Manifest.permissions;
  let filters cls =
    match Manifest.find m cls with
    | Some c ->
        List.map
          (fun f -> (f.Manifest.if_actions, f.Manifest.if_categories))
          c.Manifest.comp_filters
    | None -> Alcotest.failf "%s missing" cls
  in
  Alcotest.(check (list (pair (list string) (list string))))
    "launcher filter"
    [ ([ "android.intent.action.MAIN" ], [ "android.intent.category.LAUNCHER" ]) ]
    (filters "de.ecspride.MainActivity");
  match Manifest.find m "de.ecspride.BootListener" with
  | Some c ->
      Alcotest.(check bool) "receiver kind" true
        (c.Manifest.comp_kind = Framework.Receiver);
      Alcotest.(check bool) "exported" true c.Manifest.comp_exported;
      Alcotest.(check (list (pair (list string) (list string))))
        "actions"
        [ ([ "android.intent.action.BOOT_COMPLETED" ], []) ]
        (filters "de.ecspride.BootListener")
  | None -> Alcotest.fail "receiver missing"

let test_manifest_relative_names () =
  let m = Manifest.parse manifest_src in
  Alcotest.(check bool) "dot-relative resolved" true
    (Manifest.find m "de.ecspride.Worker" <> None)

let test_manifest_errors () =
  (match Manifest.parse "<notmanifest/>" with
  | exception Manifest.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed");
  match
    Manifest.parse
      {|<manifest package="p"><application><activity/></application></manifest>|}
  with
  | exception Manifest.Malformed _ -> ()
  | _ -> Alcotest.fail "component without name should fail"

(* ---------------- layout ---------------- *)

let layout_src =
  {|<?xml version="1.0" encoding="utf-8"?>
<LinearLayout android:orientation="vertical">
  <EditText android:id="@+id/username" android:inputType="text"/>
  <EditText android:id="@+id/pwdString" android:inputType="textPassword"/>
  <Button android:id="@+id/button1" android:onClick="sendMessage"/>
  <LinearLayout>
    <TextView android:id="@+id/label"/>
  </LinearLayout>
</LinearLayout>|}

let test_layout_parse () =
  let l = Layout.parse [ ("activity_main", layout_src) ] in
  Alcotest.(check int) "4 controls" 4 (List.length l.Layout.controls);
  let pwd = Option.get (Layout.control_by_name l "pwdString") in
  Alcotest.(check bool) "password flagged" true pwd.Layout.ctl_password;
  let user = Option.get (Layout.control_by_name l "username") in
  Alcotest.(check bool) "username not password" false user.Layout.ctl_password;
  Alcotest.(check string) "widget class" "android.widget.EditText"
    pwd.Layout.ctl_class;
  Alcotest.(check (list string)) "xml callbacks" [ "sendMessage" ]
    (Layout.xml_callbacks l "activity_main");
  (* ids are dense from the aapt-style base, in declaration order *)
  Alcotest.(check int) "first id" Layout.id_base user.Layout.ctl_id;
  Alcotest.(check int) "second id" (Layout.id_base + 1) pwd.Layout.ctl_id;
  Alcotest.(check (option int)) "layout id" (Some Layout.layout_id_base)
    (Layout.layout_id l "activity_main");
  match Layout.control_by_id l (Layout.id_base + 1) with
  | Some c -> Alcotest.(check string) "lookup by id" "pwdString" c.Layout.ctl_name
  | None -> Alcotest.fail "id lookup failed"

let test_layout_input_type_union () =
  let l =
    Layout.parse
      [ ("l", {|<EditText android:id="@+id/x" android:inputType="text|textPassword"/>|}) ]
  in
  let c = Option.get (Layout.control_by_name l "x") in
  Alcotest.(check bool) "union input type" true c.Layout.ctl_password

(* ---------------- source/sink format ---------------- *)

let test_susi_parse () =
  let defs =
    Sourcesink.parse_string
      {|% comment line
<android.telephony.TelephonyManager: java.lang.String getDeviceId()> -> _SOURCE_ {IMEI}
<a.B: void cb(android.location.Location)> param0 -> _SOURCE_ {LOCATION}
<android.util.Log: int d(java.lang.String,java.lang.String)> -> _SINK_ {LOG}
<x.Y: void f()> -> _SINK_
|}
  in
  Alcotest.(check int) "4 defs" 4 (List.length defs);
  let t = Sourcesink.create defs in
  Alcotest.(check bool) "source found" true
    (Sourcesink.is_return_source t ~cls:"android.telephony.TelephonyManager"
       ~mname:"getDeviceId"
    = Some Sourcesink.Imei);
  Alcotest.(check bool) "param source" true
    (match Sourcesink.param_source t ~cls:"a.B" ~mname:"cb" with
    | Some ([ 0 ], Sourcesink.Location) -> true
    | _ -> false);
  Alcotest.(check bool) "sink" true
    (Sourcesink.is_sink t ~cls:"android.util.Log" ~mname:"d"
    = Some Sourcesink.Log);
  Alcotest.(check bool) "category defaults to generic" true
    (Sourcesink.is_sink t ~cls:"x.Y" ~mname:"f" = Some Sourcesink.Generic)

let test_susi_errors () =
  let bad =
    [
      "nonsense line";
      "<a.B void f()> -> _SOURCE_";
      "<a.B: void f()> -> _NEITHER_";
      "<a.B: void f()> param0 -> _SINK_";
      "<a.B: void f()> -> _SOURCE_ CAT";
    ]
  in
  List.iter
    (fun line ->
      match Sourcesink.parse_string line with
      | exception Sourcesink.Bad_line _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected Bad_line on %S" line))
    bad

let test_default_config_parses () =
  let t = Sourcesink.default () in
  Alcotest.(check bool) "IMEI source present" true
    (Sourcesink.is_return_source t ~cls:"android.telephony.TelephonyManager"
       ~mname:"getDeviceId"
    <> None);
  Alcotest.(check bool) "SMS sink present" true
    (Sourcesink.is_sink t ~cls:"android.telephony.SmsManager"
       ~mname:"sendTextMessage"
    <> None);
  Alcotest.(check bool) "putExtra is NOT a sink (IntentSink1 design)" true
    (Sourcesink.is_sink t ~cls:"android.content.Intent" ~mname:"putExtra" = None)

(* ---------------- rules format ---------------- *)

let test_rules_parse () =
  let r =
    Rules.of_string
      {|% wrapper rules
java.lang.StringBuilder append : recv<-args, ret<-recv
java.util.Map get : ret<-recv
java.lang.String length :
java.lang.System arraycopy : arg2<-arg0
|}
  in
  (match Rules.lookup r ~cls:"java.lang.StringBuilder" ~mname:"append" with
  | Some [ e1; e2 ] ->
      Alcotest.(check bool) "recv<-args" true
        (e1.Rules.eff_to = Rules.To_recv && e1.Rules.eff_from = Rules.From_any_arg);
      Alcotest.(check bool) "ret<-recv" true
        (e2.Rules.eff_to = Rules.To_ret && e2.Rules.eff_from = Rules.From_recv)
  | _ -> Alcotest.fail "append rule wrong");
  Alcotest.(check bool) "empty effect list registered" true
    (Rules.lookup r ~cls:"java.lang.String" ~mname:"length" = Some []);
  (match Rules.lookup r ~cls:"java.lang.System" ~mname:"arraycopy" with
  | Some [ e ] ->
      Alcotest.(check bool) "arg2<-arg0" true
        (e.Rules.eff_to = Rules.To_arg 2 && e.Rules.eff_from = Rules.From_arg 0)
  | _ -> Alcotest.fail "arraycopy rule wrong");
  Alcotest.(check bool) "missing rule" true
    (Rules.lookup r ~cls:"x.Y" ~mname:"z" = None)

let test_rules_errors () =
  List.iter
    (fun line ->
      match Rules.parse_string line with
      | exception Rules.Bad_rule _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected Bad_rule on %S" line))
    [ "no colon here"; "a.B m : garbage"; "a.B m : ret<-nowhere"; "a.B m : what<-recv" ]

let test_default_rules_parse () =
  let w = Rules.default_wrappers () in
  Alcotest.(check bool) "StringBuilder.append modelled" true
    (Rules.mem w ~cls:"java.lang.StringBuilder" ~mname:"append");
  Alcotest.(check bool) "Map.put modelled" true
    (Rules.mem w ~cls:"java.util.Map" ~mname:"put");
  let n = Rules.default_natives () in
  Alcotest.(check bool) "arraycopy modelled" true
    (Rules.mem n ~cls:"java.lang.System" ~mname:"arraycopy")

(* ---------------- framework skeleton ---------------- *)

let test_framework_hierarchy () =
  let sc = Framework.fresh_scene () in
  let open Fd_ir in
  Alcotest.(check bool) "Activity <: Context" true
    (Scene.is_subtype sc "android.app.Activity" "android.content.Context");
  Alcotest.(check bool) "EditText <: View" true
    (Scene.is_subtype sc "android.widget.EditText" "android.view.View");
  Alcotest.(check bool) "interface registered" true
    (match Scene.find_class sc "android.view.View$OnClickListener" with
    | Some c -> c.Jclass.c_is_interface
    | None -> false)

let test_component_kind () =
  let sc = Framework.fresh_scene () in
  let open Fd_ir in
  Scene.add_class sc
    (Build.cls "app.Main" ~super:"android.app.Activity" []);
  Scene.add_class sc (Build.cls "app.Svc" ~super:"android.app.Service" []);
  Scene.add_class sc (Build.cls "app.Plain" []);
  Alcotest.(check bool) "activity" true
    (Framework.component_kind_of sc "app.Main" = Some Framework.Activity);
  Alcotest.(check bool) "service" true
    (Framework.component_kind_of sc "app.Svc" = Some Framework.Service);
  Alcotest.(check bool) "plain" true
    (Framework.component_kind_of sc "app.Plain" = None)

let test_callback_methods_of () =
  let sc = Framework.fresh_scene () in
  let open Fd_ir in
  Scene.add_class sc
    (Build.cls "app.Handler" ~interfaces:[ "android.view.View$OnClickListener" ]
       [
         Build.meth "onClick" ~params:[ Fd_ir.Types.Ref "android.view.View" ]
           (fun m -> Build.ret m);
       ]);
  let cbs = Framework.callback_methods_of sc "app.Handler" in
  Alcotest.(check int) "one callback" 1 (List.length cbs);
  let iface, decl, _ = List.hd cbs in
  Alcotest.(check string) "interface" "android.view.View$OnClickListener" iface;
  Alcotest.(check string) "declared on" "app.Handler" decl.Jclass.c_name

(* ---------------- APK loading ---------------- *)

let test_apk_load_validation () =
  let open Fd_ir in
  let manifest =
    Apk.simple_manifest ~package:"t" [ (Framework.Activity, "t.Main", []) ]
  in
  (* missing class *)
  (match Apk.load (Apk.make "bad1" ~manifest []) with
  | exception Apk.Load_error _ -> ()
  | _ -> Alcotest.fail "expected load error for missing class");
  (* wrong superclass *)
  (match
     Apk.load (Apk.make "bad2" ~manifest [ Build.cls "t.Main" [] ])
   with
  | exception Apk.Load_error _ -> ()
  | _ -> Alcotest.fail "expected load error for non-activity");
  (* good *)
  let good =
    Apk.make "good" ~manifest
      [ Build.cls "t.Main" ~super:"android.app.Activity" [] ]
  in
  let loaded = Apk.load good in
  Alcotest.(check int) "one component" 1 (List.length loaded.Apk.components)

let test_apk_text_source () =
  let manifest =
    Apk.simple_manifest ~package:"t" [ (Framework.Activity, "t.Main", []) ]
  in
  let apk =
    Apk.make_text "textual" ~manifest
      [ {|class t.Main extends android.app.Activity {
            method void onCreate(android.os.Bundle) {
              this := @this: t.Main;
              return;
            }
          }|} ]
  in
  let loaded = Apk.load apk in
  Alcotest.(check bool) "class parsed into scene" true
    (Fd_ir.Scene.mem loaded.Apk.scene "t.Main")

(* a lenient load reports its skips in pipeline order: manifest,
   layouts, classes, components (serve's [diags] reply lists them so) *)
let test_apk_lenient_diag_order () =
  let open Fd_ir in
  let manifest =
    {|<manifest package="t"><application>
        <activity android:name="t.Main"/>
        <activity android:name="t.Gone"/>
        <activity android:name="t.Flag" android:enabled="notabool"/>
      </application></manifest>|}
  in
  let main () = Build.cls "t.Main" ~super:"android.app.Activity" [] in
  let loaded =
    Apk.load ~mode:`Lenient
      (Apk.make "order" ~manifest ~layouts:[ ("bad", "<unclosed") ]
         [ main (); main () ])
  in
  let prefixes =
    [ "skipped <activity>"; "skipped layout"; "skipped duplicate class";
      "skipped component" ]
  in
  Alcotest.(check int) "four skips" 4 (List.length loaded.Apk.diags);
  Alcotest.(check (list string))
    "manifest, layout, class, component" prefixes
    (List.map2
       (fun prefix (d : Fd_resilience.Diag.t) ->
         if String.starts_with ~prefix d.Fd_resilience.Diag.d_msg then prefix
         else d.Fd_resilience.Diag.d_msg)
       prefixes loaded.Apk.diags);
  Alcotest.(check string) "duplicate class text"
    "skipped duplicate class t.Main"
    (List.nth loaded.Apk.diags 2).Fd_resilience.Diag.d_msg;
  Alcotest.(check int) "only t.Main survives" 1
    (List.length loaded.Apk.components)

(* the on-disk sample app shipped with the repository *)
let test_shipped_app () =
  let dir = "../examples/apps/leakage_app" in
  if Sys.file_exists dir then begin
    let apk = Apk.of_dir dir in
    let loaded = Apk.load apk in
    Alcotest.(check int) "one component" 1
      (List.length loaded.Apk.components);
    Alcotest.(check bool) "classes parsed" true
      (Fd_ir.Scene.mem loaded.Apk.scene "de.ecspride.LeakageApp"
      && Fd_ir.Scene.mem loaded.Apk.scene "de.ecspride.User");
    let pwd = Layout.control_by_name loaded.Apk.layout "pwdString" in
    Alcotest.(check bool) "password control" true
      (match pwd with Some c -> c.Layout.ctl_password | None -> false)
  end
  else Alcotest.skip ()

let () =
  Alcotest.run "fd_frontend"
    [
      ( "manifest",
        [
          Alcotest.test_case "parse" `Quick test_manifest_parse;
          Alcotest.test_case "relative names" `Quick test_manifest_relative_names;
          Alcotest.test_case "errors" `Quick test_manifest_errors;
        ] );
      ( "layout",
        [
          Alcotest.test_case "parse" `Quick test_layout_parse;
          Alcotest.test_case "inputType union" `Quick test_layout_input_type_union;
        ] );
      ( "sources-sinks",
        [
          Alcotest.test_case "susi format" `Quick test_susi_parse;
          Alcotest.test_case "format errors" `Quick test_susi_errors;
          Alcotest.test_case "default config" `Quick test_default_config_parses;
        ] );
      ( "rules",
        [
          Alcotest.test_case "parse" `Quick test_rules_parse;
          Alcotest.test_case "errors" `Quick test_rules_errors;
          Alcotest.test_case "defaults" `Quick test_default_rules_parse;
        ] );
      ( "framework",
        [
          Alcotest.test_case "hierarchy" `Quick test_framework_hierarchy;
          Alcotest.test_case "component kinds" `Quick test_component_kind;
          Alcotest.test_case "callback methods" `Quick test_callback_methods_of;
        ] );
      ( "apk",
        [
          Alcotest.test_case "load validation" `Quick test_apk_load_validation;
          Alcotest.test_case "textual classes" `Quick test_apk_text_source;
          Alcotest.test_case "shipped sample app" `Quick test_shipped_app;
          Alcotest.test_case "lenient diagnostic order" `Quick
            test_apk_lenient_diag_order;
        ] );
    ]
