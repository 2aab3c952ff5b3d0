(* Tests for the ICC subsystem (Fd_core.Icc): manifest intent-filter
   matching and Android 12 exported semantics, intent-target
   resolution, flow stitching across component and app boundaries
   (per extra key), the exported gate between apps, the DroidBench
   inter-app pins, and the collusion differential check. *)

open Fd_ir
open Fd_core
module B = Build
module T = Types
module FW = Fd_frontend.Framework
module Apk = Fd_frontend.Apk
module Manifest = Fd_frontend.Manifest
module Gen = Fd_appgen.Generator
module Dc = Fd_diffcheck.Diffcheck
module Verdict = Fd_diffcheck.Verdict
module Interapp = Fd_droidbench.Interapp
module Bench_app = Fd_droidbench.Bench_app

let intent_t = T.Ref "android.content.Intent"
let icc_config = { Config.default with Config.icc = true }

let keys_of (r : Infoflow.result) =
  List.map
    (fun (fd : Bidi.finding) ->
      (fd.Bidi.f_source.Taint.si_tag, fd.Bidi.f_sink_tag))
    r.Infoflow.r_findings
  |> List.sort_uniq compare

let analyze ?(config = Config.default) apk =
  Infoflow.analyze_apk ~config apk

let key = Alcotest.(pair (option string) (option string))

(* ---------------- manifest: filters and exported ----------------- *)

let desc ?cls ?action ?(cats = []) ?scheme ?host ?mime () =
  {
    Manifest.it_class = cls;
    it_action = action;
    it_categories = cats;
    it_scheme = scheme;
    it_host = host;
    it_mime = mime;
  }

let test_filter_matching () =
  let m =
    Manifest.parse
      {|<manifest package="p">
  <application>
    <activity android:name="p.View">
      <intent-filter>
        <action android:name="p.VIEW"/>
        <category android:name="android.intent.category.DEFAULT"/>
        <data android:scheme="https" android:host="example.com"/>
      </intent-filter>
    </activity>
    <activity android:name="p.Img">
      <intent-filter>
        <action android:name="p.VIEW"/>
        <data android:mimeType="image/*"/>
      </intent-filter>
    </activity>
    <activity android:name="p.Plain">
      <intent-filter><action android:name="p.PLAIN"/></intent-filter>
    </activity>
  </application>
</manifest>|}
  in
  let receives cls d =
    match Manifest.find m cls with
    | None -> Alcotest.fail ("no component " ^ cls)
    | Some c -> Manifest.component_receives c d
  in
  (* action test *)
  Alcotest.(check bool) "matching action" true
    (receives "p.Plain" (desc ~action:"p.PLAIN" ()));
  Alcotest.(check bool) "wrong action" false
    (receives "p.Plain" (desc ~action:"p.OTHER" ()));
  (* category test: every intent category must be in the filter *)
  Alcotest.(check bool) "declared category passes" true
    (receives "p.View"
       (desc ~action:"p.VIEW" ~cats:[ "android.intent.category.DEFAULT" ]
          ~scheme:"https" ~host:"example.com" ()));
  Alcotest.(check bool) "undeclared category fails" false
    (receives "p.View"
       (desc ~action:"p.VIEW" ~cats:[ "p.cat.CUSTOM" ] ~scheme:"https"
          ~host:"example.com" ()));
  (* data test: scheme+host must match a <data> spec; mime wildcards *)
  Alcotest.(check bool) "matching data URI" true
    (receives "p.View" (desc ~action:"p.VIEW" ~scheme:"https"
                          ~host:"example.com" ()));
  Alcotest.(check bool) "wrong host" false
    (receives "p.View" (desc ~action:"p.VIEW" ~scheme:"https"
                          ~host:"evil.com" ()));
  Alcotest.(check bool) "mime wildcard" true
    (receives "p.Img" (desc ~action:"p.VIEW" ~mime:"image/png" ()));
  Alcotest.(check bool) "mime mismatch" false
    (receives "p.Img" (desc ~action:"p.VIEW" ~mime:"audio/mp3" ()));
  Alcotest.(check bool) "mime-less intent vs mime filter" false
    (receives "p.Img" (desc ~action:"p.VIEW" ~scheme:"https"
                         ~host:"example.com" ()));
  (* an intent with data never matches a data-less filter *)
  Alcotest.(check bool) "data vs data-less filter" false
    (receives "p.Plain" (desc ~action:"p.PLAIN" ~scheme:"https"
                           ~host:"example.com" ()));
  (* explicit class target bypasses the filters *)
  Alcotest.(check bool) "explicit target bypasses filters" true
    (receives "p.Plain" (desc ~cls:"p.Plain" ()))

(* Android's intent resolution over {!Manifest.intent_descs}, the one
   reading both the static resolver and the concrete runner use (each
   row passes singleton lists, as a concrete send does): a data URI
   without a scheme passes no filter's data test, so it reaches
   nothing implicitly. *)
let test_intent_table () =
  let m =
    Manifest.parse
      {|<manifest package="p">
  <application>
    <activity android:name="p.Plain">
      <intent-filter><action android:name="p.ACT"/></intent-filter>
    </activity>
    <activity android:name="p.Text">
      <intent-filter>
        <action android:name="p.ACT"/>
        <data android:mimeType="text/plain"/>
      </intent-filter>
    </activity>
    <activity android:name="p.Uri">
      <intent-filter>
        <action android:name="p.ACT"/>
        <data android:scheme="app" android:host="h"/>
      </intent-filter>
    </activity>
    <activity android:name="p.Private"/>
  </application>
</manifest>|}
  in
  let opt = Option.to_list in
  let row ?cls ?action ?uri ?mime name expected =
    let descs =
      Manifest.intent_descs ~classes:(opt cls) ~actions:(opt action)
        ~categories:[] ~uris:(opt uri) ~mimes:(opt mime)
    in
    Alcotest.(check (list string))
      name expected
      (List.map
         (fun (_, c) -> c.Manifest.comp_class)
         (Manifest.receivers ~apps:[ ("p", m) ] ~sender_app:(Some "p") descs))
  in
  row "action + scheme-less URI" ~action:"p.ACT" ~uri:"noscheme" [];
  row "no action + scheme-less URI + MIME type" ~uri:"noscheme"
    ~mime:"text/plain" [];
  row "action + app://h URI" ~action:"p.ACT" ~uri:"app://h/x" [ "p.Uri" ];
  row "explicit class" ~cls:"p.Private" [ "p.Private" ]

let test_exported_semantics () =
  let m =
    Manifest.parse
      {|<manifest package="p">
  <application>
    <activity android:name="p.A" android:exported="false">
      <intent-filter><action android:name="p.ACT"/></intent-filter>
    </activity>
    <activity android:name="p.B">
      <intent-filter><action android:name="p.ACT"/></intent-filter>
    </activity>
    <activity android:name="p.C"/>
    <activity android:name="p.D" android:exported="true"/>
  </application>
</manifest>|}
  in
  let exported cls = (Option.get (Manifest.find m cls)).Manifest.comp_exported in
  (* Android 12 rules: an explicit attribute wins; absent one, a
     component is exported iff it declares an intent filter *)
  Alcotest.(check bool) "explicit false wins over filter" false (exported "p.A");
  Alcotest.(check bool) "filter implies exported" true (exported "p.B");
  Alcotest.(check bool) "no filter, no attr: private" false (exported "p.C");
  Alcotest.(check bool) "explicit true without filter" true (exported "p.D")

(* ---------------- intra-app resolution and stitching ------------- *)

(* sender activity: IMEI into an intent (explicit to icc.Receiver or
   implicit via action) under extra key "id", then startActivity;
   receiver activity reads [recv_key] and logs it *)
let app ?(explicit = true) ?(recv_key = "id") ?(receiver_logs = true) () =
  let send_cls = "icc.Sender" in
  let recv_cls = "icc.Receiver" in
  let sender =
    B.cls send_cls ~super:"android.app.Activity"
      [
        B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let this = B.this m in
            let _ = B.param m 0 "b" in
            let i = B.local m "i" ~ty:intent_t in
            let imei = B.local m "imei" in
            let tm =
              B.local m "tm" ~ty:(T.Ref "android.telephony.TelephonyManager")
            in
            B.newobj m i "android.content.Intent";
            (if explicit then
               B.spcall m i "android.content.Intent" "<init>"
                 [ Stmt.Iconst (Stmt.CClassRef recv_cls) ]
             else begin
               B.spcall m i "android.content.Intent" "<init>" [];
               B.vcall m i "android.content.Intent" "setAction"
                 [ B.s "icc.action.SHOW" ]
             end);
            B.newobj m tm "android.telephony.TelephonyManager";
            B.vcall m ~tag:"src-imei" ~ret:imei tm
              "android.telephony.TelephonyManager" "getDeviceId" [];
            B.vcall m i "android.content.Intent" "putExtra"
              [ B.s "id"; B.v imei ];
            B.vcall m ~tag:"sink-send" this "android.app.Activity"
              "startActivity" [ B.v i ]);
      ]
  in
  let receiver =
    B.cls recv_cls ~super:"android.app.Activity"
      [
        B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let this = B.this m in
            let _ = B.param m 0 "b" in
            let i = B.local m "i" ~ty:intent_t in
            let s = B.local m "s" in
            B.vcall m ~ret:i this "android.app.Activity" "getIntent" [];
            B.vcall m ~tag:"src-extra" ~ret:s i "android.content.Intent"
              "getStringExtra" [ B.s recv_key ];
            if receiver_logs then
              B.scall m ~tag:"sink-log" "android.util.Log" "i"
                [ B.s "rx"; B.v s ]
            else begin
              let tv = B.local m "tv" ~ty:(T.Ref "android.widget.TextView") in
              B.vcall m ~ret:tv this "android.app.Activity" "findViewById"
                [ B.i 3 ];
              B.vcall m tv "android.widget.TextView" "setText" [ B.v s ]
            end);
      ]
  in
  let manifest =
    {|<manifest package="icc">
  <application>
    <activity android:name="icc.Sender">
      <intent-filter>
        <action android:name="android.intent.action.MAIN"/>
        <category android:name="android.intent.category.LAUNCHER"/>
      </intent-filter>
    </activity>
    <activity android:name="icc.Receiver">
      <intent-filter>
        <action android:name="icc.action.SHOW"/>
      </intent-filter>
    </activity>
  </application>
</manifest>|}
  in
  Apk.make "IccApp" ~manifest [ sender; receiver ]

let test_tier_off_unchanged () =
  (* with the tier off the paper's over-approximation stands: the send
     is a sink, the reception source reports independently, and no
     stitched flow exists *)
  let r = analyze (app ()) in
  Alcotest.(check (list key)) "paper model keys"
    [
      (Some "src-extra", Some "sink-log");
      (Some "src-imei", Some "sink-send");
    ]
    (keys_of r);
  Alcotest.(check bool) "no icc report" true (r.Infoflow.r_icc = None)

let stitched_exn (r : Infoflow.result) =
  match r.Infoflow.r_icc with
  | None -> Alcotest.fail "expected an icc report"
  | Some rep -> rep

let test_explicit_stitch () =
  let r = analyze ~config:icc_config (app ()) in
  let rep = stitched_exn r in
  Alcotest.(check int) "one resolved send" 1 rep.Icc.ic_resolved;
  (match rep.Icc.ic_stitched with
  | [ st ] ->
      Alcotest.(check string) "target" "icc.Receiver" st.Icc.st_target;
      Alcotest.(check (option string)) "matched key" (Some "id")
        st.Icc.st_key
  | sts ->
      Alcotest.fail (Printf.sprintf "expected 1 stitched, got %d"
                       (List.length sts)));
  let ks = keys_of r in
  Alcotest.(check bool) "stitched end-to-end flow reported" true
    (List.mem (Some "src-imei", Some "sink-log") ks);
  Alcotest.(check bool) "resolved send no longer a sink" false
    (List.mem (Some "src-imei", Some "sink-send") ks)

let test_action_stitch () =
  let r = analyze ~config:icc_config (app ~explicit:false ()) in
  let rep = stitched_exn r in
  Alcotest.(check int) "implicit action resolved" 1
    (List.length rep.Icc.ic_stitched);
  Alcotest.(check bool) "stitched flow reported" true
    (List.mem (Some "src-imei", Some "sink-log") (keys_of r))

let test_key_separation () =
  (* the receiver reads a different extra key: the per-key refinement
     must not stitch, and the resolved send still stops being a sink *)
  let r = analyze ~config:icc_config (app ~recv_key:"other" ()) in
  let rep = stitched_exn r in
  Alcotest.(check int) "nothing stitched across keys" 0
    (List.length rep.Icc.ic_stitched);
  let ks = keys_of r in
  Alcotest.(check bool) "no cross-key flow" false
    (List.mem (Some "src-imei", Some "sink-log") ks);
  Alcotest.(check bool) "resolved send dropped" false
    (List.mem (Some "src-imei", Some "sink-send") ks);
  Alcotest.(check bool) "reception over-approximation remains" true
    (List.mem (Some "src-extra", Some "sink-log") ks)

let test_no_receiving_sink () =
  (* receiver only displays the value: nothing stitches, and the
     delivered send is accounted for by the receiver's (clean) run *)
  let r = analyze ~config:icc_config (app ~receiver_logs:false ()) in
  let rep = stitched_exn r in
  Alcotest.(check int) "no stitch" 0 (List.length rep.Icc.ic_stitched);
  Alcotest.(check (list key)) "no findings at all" [] (keys_of r)

let test_external_target_surface () =
  let cls = "icc.External" in
  let sender =
    B.cls cls ~super:"android.app.Activity"
      [
        B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let this = B.this m in
            let _ = B.param m 0 "b" in
            let i = B.local m "i" ~ty:intent_t in
            let imei = B.local m "imei" in
            let tm =
              B.local m "tm" ~ty:(T.Ref "android.telephony.TelephonyManager")
            in
            B.newobj m i "android.content.Intent";
            B.spcall m i "android.content.Intent" "<init>"
              [ Stmt.Iconst (Stmt.CClassRef "other.app.Activity") ];
            B.newobj m tm "android.telephony.TelephonyManager";
            B.vcall m ~tag:"src" ~ret:imei tm
              "android.telephony.TelephonyManager" "getDeviceId" [];
            B.vcall m i "android.content.Intent" "putExtra"
              [ B.s "x"; B.v imei ];
            B.vcall m ~tag:"sink-send" this "android.app.Activity"
              "startActivity" [ B.v i ]);
      ]
  in
  let apk =
    Apk.make "ExtApp"
      ~manifest:(Apk.simple_manifest ~package:"icc" [ (FW.Activity, cls, []) ])
      [ sender ]
  in
  let r = analyze ~config:icc_config apk in
  let rep = stitched_exn r in
  Alcotest.(check int) "not resolved in-scene" 0 rep.Icc.ic_resolved;
  Alcotest.(check bool) "send stays a sink" true
    (List.mem (Some "src", Some "sink-send") (keys_of r));
  match rep.Icc.ic_surface with
  | [ e ] -> (
      match e.Icc.su_reason with
      | Icc.External c ->
          Alcotest.(check string) "external class" "other.app.Activity" c
      | other ->
          Alcotest.fail ("unexpected reason: " ^ Icc.string_of_reason other))
  | es ->
      Alcotest.fail
        (Printf.sprintf "expected 1 surface entry, got %d" (List.length es))

(* ---------------- inter-app: merged pair, exported gate ---------- *)

let test_pair_stitch_and_exported_gate () =
  let gp = Gen.collusion_pair ~seed:7 0 in
  let r =
    Infoflow.analyze_merged ~config:icc_config
      (Apk.load_merged
         [ gp.Gen.gp_sender.Gen.ga_apk; gp.Gen.gp_receiver.Gen.ga_apk ])
  in
  let rep = stitched_exn r in
  let targets = List.map (fun s -> s.Icc.st_target) rep.Icc.ic_stitched in
  Alcotest.(check bool) "collusion flow stitched into receiver app" true
    (List.exists
       (fun t -> Filename.check_suffix t ".Recv" || String.length t > 0)
       targets
    && targets <> []);
  Alcotest.(check bool) "unexported decoy never stitched" true
    (List.for_all (fun t -> not (Filename.check_suffix t "Decoy")) targets);
  (* the exported attack surface lists the filtered receiver but not
     the explicitly-unexported decoy *)
  let exported_classes = List.map snd rep.Icc.ic_exported in
  Alcotest.(check bool) "receiver on the attack surface" true
    (List.exists (fun c -> Filename.check_suffix c "Recv") exported_classes);
  Alcotest.(check bool) "decoy kept off the attack surface" true
    (List.for_all
       (fun c -> not (Filename.check_suffix c "Decoy"))
       exported_classes)

let test_pair_check_clean_both_tiers () =
  let gp = Gen.collusion_pair ~seed:3 1 in
  List.iter
    (fun config ->
      let ar = Dc.check_pair ~config gp in
      Alcotest.(check int)
        (Printf.sprintf "no divergences (icc=%b)" config.Config.icc)
        0
        (List.length (Dc.divergences ar)))
    [ Config.default; icc_config ]

(* ---------------- DroidBench inter-app pins ---------------------- *)

let bench_keys ~config (a : Bench_app.t) =
  keys_of (Infoflow.analyze_apk ~config a.Bench_app.app_apk)

let test_intent_sink1_gap_closed () =
  (* IntentSink1 leaks via setResult: invisible to the paper model
     (the documented miss), found by the icc tier's result-leak
     synthesis — while the tier-off table stays untouched *)
  let sink1 = Interapp.intent_sink1 in
  let off = bench_keys ~config:Config.default sink1 in
  let on_ = bench_keys ~config:icc_config sink1 in
  let k = (Some "src-imei", Some "sink-setresult") in
  Alcotest.(check bool) "tier off: setResult invisible" false
    (List.mem k off);
  Alcotest.(check bool) "tier on: setResult leak found" true
    (List.mem k on_)

let test_other_interapp_rows_unchanged () =
  (* IntentSink2 and ActivityCommunication1 send untargeted intents
     the constant analysis cannot pin, so the tier changes nothing *)
  List.iter
    (fun (a : Bench_app.t) ->
      Alcotest.(check (list key))
        (a.Bench_app.app_name ^ " unchanged")
        (bench_keys ~config:Config.default a)
        (bench_keys ~config:icc_config a))
    [ Interapp.intent_sink2; Interapp.activity_communication1 ]

(* ---------------- campaigns: zero divergence, determinism -------- *)

let test_icc_campaign_clean_both_tiers () =
  List.iter
    (fun config ->
      let c = Dc.campaign ~config ~profile:Gen.Icc ~seed:11 ~n:6 () in
      Alcotest.(check int)
        (Printf.sprintf "icc campaign divergence-free (icc=%b)"
           config.Config.icc)
        0
        (List.length (Dc.divergent_reports c)))
    [ Config.default; icc_config ]

let test_pair_campaign_clean_and_deterministic () =
  let run () = Dc.pair_campaign ~config:icc_config ~seed:5 ~n:3 () in
  let c1 = run () in
  let c2 = run () in
  Alcotest.(check int) "pair campaign divergence-free" 0
    (List.length (Dc.divergent_reports c1));
  Alcotest.(check string) "digest deterministic" (Dc.digest c1) (Dc.digest c2)

(* ---------------- merged Scene costs the sum of its apps ---------- *)

(* per-method taint facts of one analysis: the distinct taints
   [Bidi.results_at] gives at each node of the method, summed over its
   nodes, for every method that has any.  Zero-fact edges are left
   out: the zero fact visits only the statements where it generates a
   taint, so a method's share of them depends on what its callers can
   reach, not on which apps share the Scene. *)
let taint_facts m =
  let r = Infoflow.analyze_merged m in
  let cg = r.Infoflow.r_icfg.Fd_callgraph.Icfg.cg in
  List.filter_map
    (fun mk ->
      match Fd_callgraph.Callgraph.body_of cg mk with
      | exception Not_found -> None
      | body ->
          let n = ref 0 in
          for i = 0 to Body.length body - 1 do
            n :=
              !n
              + List.length
                  (Bidi.results_at r.Infoflow.r_engine
                     Fd_callgraph.Icfg.{ n_method = mk; n_idx = i })
          done;
          if !n = 0 then None
          else Some (Fd_callgraph.Mkey.to_string mk, !n))
    (Fd_callgraph.Callgraph.reachable_methods cg)

(* one app's static taint must not spread into the other apps'
   methods: outside the dummy methods, which drive the components,
   each method gets exactly the taint facts it gets when its own app
   is analysed alone.  Each app's own dummy method gets at least what
   its app's dummy main gets alone (static facts also re-enter it from
   the outer loop over the apps), and all dummy methods together stay
   within twice the apps' dummy mains alone: one dummy method for the
   whole merged Scene got 7.6 times as many (948 against 124). *)
let test_merged_facts_per_method () =
  let apks =
    List.init 10 (fun i ->
        (Gen.generate ~profile:Gen.Play ~seed:1 i).Gen.ga_apk)
  in
  let alone =
    List.map (fun apk -> taint_facts (Apk.load_merged [ apk ])) apks
  in
  let merged = taint_facts (Apk.load_merged apks) in
  let is_dummy = String.starts_with ~prefix:"dummyMainClass." in
  let facts_of name facts = Option.value (List.assoc_opt name facts) ~default:0 in
  let own_facts = List.concat alone in
  let differing =
    List.filter_map
      (fun (name, facts) ->
        if is_dummy name then None
        else
          let own = List.assoc_opt name own_facts in
          if own = Some facts then None
          else
            Some
              (Printf.sprintf "%s: %d merged, %s alone" name facts
                 (match own with Some n -> string_of_int n | None -> "none")))
      merged
  in
  Alcotest.(check (list string)) "methods whose facts differ" [] differing;
  let main_alone = List.map (facts_of "dummyMainClass.dummyMain/0") alone in
  let short =
    List.concat
      (List.mapi
         (fun k own ->
           let name = Printf.sprintf "dummyMainClass.dummyMain_app%d/0" k in
           let got = facts_of name merged in
           if got >= own then []
           else [ Printf.sprintf "%s: %d merged, %d alone" name got own ])
         main_alone)
  in
  Alcotest.(check (list string))
    "app dummy methods with fewer facts than alone" [] short;
  let sum = List.fold_left ( + ) 0 in
  let dummy_merged =
    sum (List.filter_map
           (fun (name, n) -> if is_dummy name then Some n else None)
           merged)
  in
  let dummy_alone = sum main_alone in
  if dummy_merged > 2 * dummy_alone then
    Alcotest.failf "dummy methods get %d facts merged, over twice %d alone"
      dummy_merged dummy_alone

(* ---------------- properties --------------------------------------- *)

let prop_tier_on_subset =
  QCheck.Test.make
    ~name:"tier-on findings are tier-off findings or icc additions"
    ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let ga = Gen.generate ~profile:Gen.Icc ~seed 0 in
      let off = keys_of (analyze ga.Gen.ga_apk) in
      let r_on = analyze ~config:icc_config ga.Gen.ga_apk in
      let added =
        match r_on.Infoflow.r_icc with
        | None -> []
        | Some rep ->
            List.map
              (fun (fd : Bidi.finding) ->
                (fd.Bidi.f_source.Taint.si_tag, fd.Bidi.f_sink_tag))
              (Icc.added rep)
      in
      List.for_all
        (fun k -> List.mem k off || List.mem k added)
        (keys_of r_on))

let prop_tier_on_deterministic =
  QCheck.Test.make ~name:"icc analysis is deterministic" ~count:10
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let ga = Gen.generate ~profile:Gen.Icc ~seed 1 in
      keys_of (analyze ~config:icc_config ga.Gen.ga_apk)
      = keys_of (analyze ~config:icc_config ga.Gen.ga_apk))

(* ---------------- summary-store separation ----------------------- *)

let test_config_digest_covers_icc () =
  let sources = Fd_frontend.Sourcesink.default () in
  let wrappers = Fd_frontend.Rules.default_wrappers () in
  let natives = Fd_frontend.Rules.default_natives () in
  let digest icc =
    Summary.config_digest
      ~config:{ Config.default with Config.icc }
      ~sources ~wrappers ~natives
  in
  Alcotest.(check bool) "icc on/off digests differ" true
    (digest true <> digest false)

let () =
  Alcotest.run "fd_icc"
    [
      ( "manifest",
        [
          Alcotest.test_case "filter matching" `Quick test_filter_matching;
          Alcotest.test_case "exported semantics" `Quick
            test_exported_semantics;
          Alcotest.test_case "intent resolution table" `Quick
            test_intent_table;
        ] );
      ( "stitching",
        [
          Alcotest.test_case "tier off unchanged" `Quick
            test_tier_off_unchanged;
          Alcotest.test_case "explicit intent" `Quick test_explicit_stitch;
          Alcotest.test_case "implicit action" `Quick test_action_stitch;
          Alcotest.test_case "extra-key separation" `Quick
            test_key_separation;
          Alcotest.test_case "no receiving sink" `Quick
            test_no_receiving_sink;
          Alcotest.test_case "external target surface" `Quick
            test_external_target_surface;
        ] );
      ( "inter-app",
        [
          Alcotest.test_case "pair stitch + exported gate" `Quick
            test_pair_stitch_and_exported_gate;
          Alcotest.test_case "pair check clean both tiers" `Slow
            test_pair_check_clean_both_tiers;
          Alcotest.test_case "IntentSink1 gap closed" `Quick
            test_intent_sink1_gap_closed;
          Alcotest.test_case "other inter-app rows unchanged" `Quick
            test_other_interapp_rows_unchanged;
          Alcotest.test_case "merged facts per method" `Quick
            test_merged_facts_per_method;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "icc campaign clean both tiers" `Slow
            test_icc_campaign_clean_both_tiers;
          Alcotest.test_case "pair campaign clean + deterministic" `Slow
            test_pair_campaign_clean_and_deterministic;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_tier_on_subset;
          QCheck_alcotest.to_alcotest prop_tier_on_deterministic;
        ] );
      ( "store",
        [
          Alcotest.test_case "config digest covers icc" `Quick
            test_config_digest_covers_icc;
        ] );
    ]
