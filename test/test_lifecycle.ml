(* Tests for the lifecycle model: lifecycle method tables, dummy-main
   generation across component kinds, and callback discovery edge
   cases. *)

open Fd_ir
open Fd_lifecycle
module B = Build
module T = Types
module FW = Fd_frontend.Framework
module Apk = Fd_frontend.Apk

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let dummy_main_text loaded =
  let ccs = Callbacks.discover_all loaded in
  let _entry = Dummy_main.generate loaded.Apk.scene ccs in
  let dc = Option.get (Scene.find_class loaded.Apk.scene "dummyMainClass") in
  let dm = Option.get (Jclass.find_method_named dc "dummyMain") in
  Pretty.body_to_string (Option.get dm.Jclass.jm_body)

let load_app name comps classes =
  Apk.load
    (Apk.make name ~manifest:(Apk.simple_manifest ~package:"t" comps) classes)

(* ---------------- lifecycle tables ---------------- *)

let test_lifecycle_tables () =
  Alcotest.(check int) "activity methods" 7
    (List.length (Lifecycle.methods_of FW.Activity));
  Alcotest.(check int) "receiver methods" 1
    (List.length (Lifecycle.methods_of FW.Receiver));
  Alcotest.(check bool) "onCreate has a Bundle param" true
    (Lifecycle.activity_create.Lifecycle.lc_params
    = [ T.Ref "android.os.Bundle" ])

let test_implemented_filtering () =
  let scene = FW.fresh_scene () in
  Scene.add_class scene
    (B.cls "t.A" ~super:"android.app.Activity"
       [
         B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
             let _ = B.this m in
             B.ret m);
         B.meth "onPause" (fun m ->
             let _ = B.this m in
             B.ret m);
       ]);
  let impl = Lifecycle.implemented_methods scene "t.A" FW.Activity in
  Alcotest.(check (list string)) "only implemented methods"
    [ "onCreate"; "onPause" ]
    (List.map (fun (_, m) -> m.Jclass.jm_sig.T.m_name) impl
    |> List.sort compare)

(* ---------------- dummy mains per component kind ---------------- *)

let test_service_dummy_main () =
  let svc =
    B.cls "t.Svc" ~super:"android.app.Service"
      [
        B.meth "onCreate" (fun m -> let _ = B.this m in B.ret m);
        B.meth "onStartCommand"
          ~params:[ T.Ref "android.content.Intent"; T.Int; T.Int ] ~ret:T.Int
          (fun m ->
            let _ = B.this m in
            let r = B.local m "r" ~ty:T.Int in
            B.const m r (B.i 0);
            B.retv m (B.v r));
        B.meth "onDestroy" (fun m -> let _ = B.this m in B.ret m);
      ]
  in
  let loaded = load_app "SvcApp" [ (FW.Service, "t.Svc", []) ] [ svc ] in
  let text = dummy_main_text loaded in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " called") true (contains text s))
    [ "onCreate"; "onStartCommand"; "onDestroy" ];
  Alcotest.(check bool) "unimplemented onBind absent" false
    (contains text "onBind")

let test_provider_dummy_main () =
  let prov =
    B.cls "t.Prov" ~super:"android.content.ContentProvider"
      [
        B.meth "onCreate" (fun m -> let _ = B.this m in B.ret m);
        B.meth "query" ~params:[ T.Ref "android.net.Uri" ]
          ~ret:(T.Ref "java.lang.Object") (fun m ->
            let _ = B.this m in
            let r = B.local m "r" in
            B.const m r B.nul |> ignore;
            B.retv m (B.v r));
      ]
  in
  let loaded = load_app "ProvApp" [ (FW.Provider, "t.Prov", []) ] [ prov ] in
  let text = dummy_main_text loaded in
  Alcotest.(check bool) "query offered" true (contains text "query");
  Alcotest.(check bool) "unimplemented insert absent" false
    (contains text "insert")

let test_multi_component_ordering () =
  (* two components: both sections exist and loop back to the main
     dispatcher, modelling arbitrary sequential order with repetition *)
  let a =
    B.cls "t.A1" ~super:"android.app.Activity"
      [ B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let _ = B.this m in
            B.ret m) ]
  in
  let b =
    B.cls "t.A2" ~super:"android.app.Activity"
      [ B.meth "onResume" (fun m -> let _ = B.this m in B.ret m) ]
  in
  let loaded =
    load_app "TwoApp"
      [ (FW.Activity, "t.A1", []); (FW.Activity, "t.A2", []) ]
      [ a; b ]
  in
  let text = dummy_main_text loaded in
  Alcotest.(check bool) "A1 present" true (contains text "t.A1");
  Alcotest.(check bool) "A2 present" true (contains text "t.A2");
  (* repetition: the printed body has backward gotos (the dispatcher
     loop); the textual labels are positional L<n> *)
  Alcotest.(check bool) "dispatcher loop (goto back-edges)" true
    (contains text "goto L");
  (* one app: both components share the one dummy method *)
  let dc = Option.get (Scene.find_class loaded.Apk.scene "dummyMainClass") in
  Alcotest.(check (list string)) "one method for one app" [ "dummyMain" ]
    (List.map
       (fun (jm : Jclass.jmethod) -> jm.Jclass.jm_sig.T.m_name)
       dc.Jclass.c_methods)

let test_dummy_method_per_app () =
  (* a merged Scene of two apps: [dummyMain] only calls one method per
     app, and each app's method drives that app's components alone *)
  let act =
    B.cls "a.Act" ~super:"android.app.Activity"
      [ B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let _ = B.this m in
            B.ret m) ]
  in
  let svc =
    B.cls "b.Svc" ~super:"android.app.Service"
      [ B.meth "onCreate" (fun m -> let _ = B.this m in B.ret m);
        B.meth "onDestroy" (fun m -> let _ = B.this m in B.ret m) ]
  in
  let apk name comps classes =
    Apk.make name ~manifest:(Apk.simple_manifest ~package:name comps) classes
  in
  let loaded =
    (Apk.load_merged
       [ apk "a" [ (FW.Activity, "a.Act", []) ] [ act ];
         apk "b" [ (FW.Service, "b.Svc", []) ] [ svc ] ])
      .Apk.m_loaded
  in
  let ccs = Callbacks.discover_all loaded in
  Alcotest.(check (list string)) "components' apps" [ "a"; "b" ]
    (List.map (fun cc -> cc.Callbacks.cc_app) ccs);
  let _entry = Dummy_main.generate loaded.Apk.scene ccs in
  let dc = Option.get (Scene.find_class loaded.Apk.scene "dummyMainClass") in
  let text name =
    let jm = Option.get (Jclass.find_method_named dc name) in
    Pretty.body_to_string (Option.get jm.Jclass.jm_body)
  in
  Alcotest.(check (list string)) "one method per app, after dummyMain"
    [ "dummyMain"; "dummyMain_app0"; "dummyMain_app1" ]
    (List.map
       (fun (jm : Jclass.jmethod) -> jm.Jclass.jm_sig.T.m_name)
       dc.Jclass.c_methods);
  let outer = text "dummyMain" in
  List.iter
    (fun s -> Alcotest.(check bool) ("dummyMain calls " ^ s) true (contains outer s))
    [ "staticinvoke dummyMainClass#dummyMain_app0()";
      "staticinvoke dummyMainClass#dummyMain_app1()" ];
  Alcotest.(check bool) "dummyMain calls no lifecycle method" false
    (contains outer "virtualinvoke");
  let app0 = text "dummyMain_app0" and app1 = text "dummyMain_app1" in
  List.iter
    (fun (what, body, want) ->
      Alcotest.(check bool) what want (contains body what))
    [ ("a.Act#onCreate", app0, true); ("b.Svc", app0, false);
      ("b.Svc#onCreate", app1, true); ("b.Svc#onDestroy", app1, true);
      ("a.Act", app1, false) ];
  List.iter
    (fun body ->
      Alcotest.(check bool) "reads the opaque predicate" true
        (contains body "static dummyMainClass#p"))
    [ app0; app1 ]

(* ---------------- callback discovery ---------------- *)

let test_transitive_callback_registration () =
  (* a callback handler registers another callback: the fixed point
     must discover both *)
  let act = "t.ChainAct" in
  let l1 = "t.Listener1" in
  let l2 = "t.Listener2" in
  let mk_listener name ~registers =
    B.cls name ~interfaces:[ "android.view.View$OnClickListener" ]
      [
        B.meth "<init>" ~params:[ T.Ref act ] (fun m ->
            let _ = B.this m in
            let _ = B.param m 0 "o" in
            B.ret m);
        B.meth "onClick" ~params:[ T.Ref "android.view.View" ] (fun m ->
            let _this = B.this m in
            let v = B.param m 0 "v" in
            match registers with
            | Some next ->
                let l = B.local m "l" ~ty:(T.Ref next) in
                B.newc m l next [ B.nul ];
                B.vcall m v "android.view.View" "setOnClickListener" [ B.v l ]
            | None -> ());
      ]
  in
  let activity =
    B.cls act ~super:"android.app.Activity"
      [
        B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let this = B.this m in
            let _ = B.param m 0 "b" in
            let btn = B.local m "btn" ~ty:(T.Ref "android.widget.Button") in
            let l = B.local m "l" ~ty:(T.Ref l1) in
            B.vcall m ~ret:btn this "android.app.Activity" "findViewById"
              [ B.i 1 ];
            B.newc m l l1 [ B.v this ];
            B.vcall m btn "android.widget.Button" "setOnClickListener" [ B.v l ]);
      ]
  in
  let loaded =
    load_app "ChainApp"
      [ (FW.Activity, act, []) ]
      [ activity; mk_listener l1 ~registers:(Some l2);
        mk_listener l2 ~registers:None ]
  in
  let ccs = Callbacks.discover_all loaded in
  let cbs =
    (List.hd ccs).Callbacks.cc_callbacks
    |> List.map (fun cb -> cb.Callbacks.cb_class)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "both listeners found" [ l1; l2 ] cbs

let test_callbacks_have_kinds () =
  let act = "t.KindsAct" in
  let layout = {|<LinearLayout><Button android:onClick="handleIt"/></LinearLayout>|} in
  let activity =
    B.cls act ~super:"android.app.Activity"
      [
        B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let this = B.this m in
            let _ = B.param m 0 "b" in
            B.vcall m this "android.app.Activity" "setContentView"
              [ B.i Fd_frontend.Layout.layout_id_base ]);
        B.meth "handleIt" ~params:[ T.Ref "android.view.View" ] (fun m ->
            let _ = B.this m in
            let _ = B.param m 0 "v" in
            B.ret m);
        B.meth "onBackPressed" (fun m -> let _ = B.this m in B.ret m);
      ]
  in
  let loaded =
    Apk.load
      (Apk.make "KindsApp"
         ~manifest:(Apk.simple_manifest ~package:"t" [ (FW.Activity, act, []) ])
         ~layouts:[ ("main", layout) ]
         [ activity ])
  in
  let ccs = Callbacks.discover_all loaded in
  let kinds =
    (List.hd ccs).Callbacks.cc_callbacks
    |> List.map (fun cb ->
           ( cb.Callbacks.cb_method.Jclass.jm_sig.T.m_name,
             match cb.Callbacks.cb_kind with
             | Callbacks.Xml_declared -> "xml"
             | Callbacks.Overridden -> "override"
             | Callbacks.Registered _ -> "registered" ))
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string)))
    "kinds recorded"
    [ ("handleIt", "xml"); ("onBackPressed", "override") ]
    kinds

let test_plain_dummy_main () =
  (* the non-Android entry-point creator used for SecuriBench *)
  let scene = FW.fresh_scene () in
  Scene.add_class scene
    (B.cls "t.S1"
       [
         B.meth "doGet" ~params:[ T.Ref "a.Req"; T.Ref "a.Out" ] (fun m ->
             let _ = B.this m in
             let _ = B.param m 0 "req" in
             let _ = B.param m 1 "out" in
             B.ret m);
         B.meth "helper" ~static:true (fun m -> B.ret m);
       ]);
  let entry =
    Dummy_main.generate_plain scene
      [
        Fd_callgraph.Mkey.{ mk_class = "t.S1"; mk_name = "doGet"; mk_arity = 2 };
        Fd_callgraph.Mkey.{ mk_class = "t.S1"; mk_name = "helper"; mk_arity = 0 };
      ]
  in
  let cg = Fd_callgraph.Callgraph.build scene ~entry:[ entry ] () in
  Alcotest.(check bool) "instance entry reachable" true
    (Fd_callgraph.Callgraph.is_reachable cg
       Fd_callgraph.Mkey.{ mk_class = "t.S1"; mk_name = "doGet"; mk_arity = 2 });
  Alcotest.(check bool) "static entry reachable" true
    (Fd_callgraph.Callgraph.is_reachable cg
       Fd_callgraph.Mkey.{ mk_class = "t.S1"; mk_name = "helper"; mk_arity = 0 })

let () =
  Alcotest.run "fd_lifecycle"
    [
      ( "tables",
        [
          Alcotest.test_case "method tables" `Quick test_lifecycle_tables;
          Alcotest.test_case "implemented filtering" `Quick
            test_implemented_filtering;
        ] );
      ( "dummy-main",
        [
          Alcotest.test_case "service" `Quick test_service_dummy_main;
          Alcotest.test_case "provider" `Quick test_provider_dummy_main;
          Alcotest.test_case "multi-component" `Quick
            test_multi_component_ordering;
          Alcotest.test_case "one dummy method per app" `Quick
            test_dummy_method_per_app;
          Alcotest.test_case "plain entry-point creator" `Quick
            test_plain_dummy_main;
        ] );
      ( "callbacks",
        [
          Alcotest.test_case "transitive registration" `Quick
            test_transitive_callback_registration;
          Alcotest.test_case "callback kinds" `Quick test_callbacks_have_kinds;
        ] );
    ]
