(* Tests for the resilience layer: budgets and cooperative
   cancellation, the degradation ladder, the lenient frontend, crash
   barriers and the deterministic fault-injection harness. *)

open Fd_core
module R = Fd_resilience
module Apk = Fd_frontend.Apk
module FW = Fd_frontend.Framework

(* ---------------- outcomes ---------------- *)

let test_outcome_taxonomy () =
  Alcotest.(check bool) "complete" true R.Outcome.(is_complete Complete);
  Alcotest.(check bool) "crashed not complete" false
    R.Outcome.(is_complete (Crashed "x"));
  Alcotest.(check bool) "worst picks crash" true
    R.Outcome.(equal (worst Deadline_exceeded (Crashed "x")) (Crashed "x"));
  Alcotest.(check bool) "crashed equal ignores message" true
    R.Outcome.(equal (Crashed "a") (Crashed "b"));
  Alcotest.(check string) "stable string" "deadline-exceeded"
    R.Outcome.(to_string Deadline_exceeded)

(* ---------------- budgets ---------------- *)

let test_budget_cap () =
  let b = R.Budget.create ~max_propagations:3 () in
  Alcotest.(check bool) "tick 1" true (R.Budget.tick b);
  Alcotest.(check bool) "tick 2" true (R.Budget.tick b);
  Alcotest.(check bool) "tick 3" true (R.Budget.tick b);
  Alcotest.(check bool) "tick 4 trips" false (R.Budget.tick b);
  Alcotest.(check bool) "sticky" false (R.Budget.tick b);
  Alcotest.(check string) "outcome" "budget-exhausted"
    (R.Outcome.to_string (R.Budget.outcome b))

let test_budget_deadline () =
  let b = R.Budget.create ~deadline_s:0.0 () in
  (* the first tick consults the clock, so a zero deadline fires even
     on a one-statement app *)
  Alcotest.(check bool) "first tick trips" false (R.Budget.tick b);
  Alcotest.(check string) "outcome" "deadline-exceeded"
    (R.Outcome.to_string (R.Budget.outcome b))

let test_budget_cancel () =
  let b = R.Budget.create () in
  Alcotest.(check bool) "live" true (R.Budget.tick b);
  R.Budget.cancel b;
  Alcotest.(check bool) "stopped" true (R.Budget.stopped b);
  Alcotest.(check bool) "tick observes cancel" false (R.Budget.tick b);
  Alcotest.(check string) "outcome" "cancelled"
    (R.Outcome.to_string (R.Budget.outcome b))

(* ---------------- chaos determinism ---------------- *)

let test_chaos_deterministic () =
  let input = String.init 256 (fun i -> Char.chr (32 + (i mod 90))) in
  let run () =
    let c = R.Chaos.create ~seed:42 ~rate:0.5 in
    List.init 20 (fun _ -> R.Chaos.corrupt_string c input)
  in
  Alcotest.(check bool) "same seed, same corruption" true (run () = run ());
  let c = R.Chaos.create ~seed:42 ~rate:1.0 in
  Alcotest.(check bool) "rate 1 always corrupts" true
    (R.Chaos.corrupt_string c input <> input);
  let c0 = R.Chaos.create ~seed:42 ~rate:0.0 in
  Alcotest.(check string) "rate 0 never corrupts" input
    (R.Chaos.corrupt_string c0 input)

let test_barrier () =
  (match R.Barrier.protect ~label:"ok" (fun () -> 7) with
  | Ok v -> Alcotest.(check int) "value" 7 v
  | Error _ -> Alcotest.fail "unexpected crash");
  (match R.Barrier.protect ~label:"boom" (fun () -> failwith "x") with
  | Ok _ -> Alcotest.fail "should have crashed"
  | Error o ->
      Alcotest.(check bool) "crashed outcome" true
        (R.Outcome.equal o (R.Outcome.Crashed "")));
  match
    R.Barrier.protect_with_retry ~label:"flaky"
      (fun () -> failwith "first")
      ~retry:(fun () -> 9)
  with
  | Ok v -> Alcotest.(check int) "retry rescued" 9 v
  | Error _ -> Alcotest.fail "retry should have succeeded"

(* ---------------- deadline mid-solve on a real app ---------------- *)

let leakage_dir = "../examples/apps/leakage_app"

let test_deadline_mid_solve () =
  if not (Sys.file_exists leakage_dir) then Alcotest.skip ();
  let apk = Apk.of_dir leakage_dir in
  let full = Infoflow.analyze_apk apk in
  Alcotest.(check bool) "full run completes" true
    (R.Outcome.is_complete full.Infoflow.r_stats.Infoflow.st_outcome);
  Alcotest.(check bool) "full run finds the leak" true
    (full.Infoflow.r_findings <> []);
  let config = { Config.default with Config.deadline_s = Some 0.0 } in
  let r = Infoflow.analyze_apk ~config apk in
  Alcotest.(check string) "deadline outcome" "deadline-exceeded"
    (R.Outcome.to_string r.Infoflow.r_stats.Infoflow.st_outcome);
  (* it stopped promptly: barely any solver work happened *)
  Alcotest.(check bool) "stopped promptly" true
    (r.Infoflow.r_stats.Infoflow.st_propagations < 10);
  (* partial findings are a subset of the full run's *)
  Alcotest.(check bool) "partial under-approximates" true
    (List.length r.Infoflow.r_findings <= List.length full.Infoflow.r_findings)

(* ---------------- the degradation ladder ---------------- *)

let test_ladder_shape () =
  let ladder = Config.degradation_ladder Config.default in
  Alcotest.(check (list string))
    "rung labels" [ "full"; "k=3"; "k=1"; "k=1,no-alias" ]
    (List.map fst ladder);
  let _, last = List.nth ladder 3 in
  Alcotest.(check bool) "last rung disables aliasing" false
    last.Config.alias_search;
  Alcotest.(check int) "last rung is k=1" 1 last.Config.max_access_path

let test_ladder_converges () =
  if not (Sys.file_exists leakage_dir) then Alcotest.skip ();
  let apk = Apk.of_dir leakage_dir in
  (* leakage_app needs 2423 propagations at full precision and at
     k=3, 860 at k=1 and 87 with aliasing off: a 400-propagation
     budget exhausts the first three rungs and completes on the
     fourth *)
  let config = { Config.default with Config.max_propagations = 400 } in
  let fb = Infoflow.analyze_with_fallback ~config [ apk ] in
  Alcotest.(check string) "degraded completeness" "degraded(k=1,no-alias)"
    (Infoflow.string_of_completeness fb.Infoflow.fb_completeness);
  Alcotest.(check int) "four attempts" 4 (List.length fb.Infoflow.fb_attempts);
  let last = List.nth fb.Infoflow.fb_attempts 3 in
  Alcotest.(check bool) "last attempt complete" true
    (R.Outcome.is_complete last.Infoflow.at_outcome);
  List.iteri
    (fun i (a : Infoflow.attempt) ->
      if i < 3 then
        Alcotest.(check string)
          (Printf.sprintf "rung %d exhausted" i)
          "budget-exhausted"
          (R.Outcome.to_string a.Infoflow.at_outcome))
    fb.Infoflow.fb_attempts;
  Alcotest.(check bool) "final result complete" true
    (R.Outcome.is_complete fb.Infoflow.fb_result.Infoflow.r_stats.Infoflow.st_outcome)

(* ---------------- lenient frontend ---------------- *)

let good_unit =
  {|class t.Main extends android.app.Activity {
  method void onCreate(android.os.Bundle) {
    local b : android.os.Bundle;
    local tm : android.telephony.TelephonyManager;
    local imei : java.lang.String;
    local sms : android.telephony.SmsManager;
    this := @this: t.Main;
    b := @parameter0;
    imei = virtualinvoke tm.android.telephony.TelephonyManager#getDeviceId() @"src-imei";
    sms = staticinvoke android.telephony.SmsManager#getDefault();
    virtualinvoke sms.android.telephony.SmsManager#sendTextMessage(imei, null, imei, null, null) @"sink-sms";
    return;
  }
}|}

let broken_unit = "class t.Broken extends {{{ not jimple at all"

(* the ladder runs over an app set as over one app: two apps whose
   budget is too small for any rung end partial, the first try "full" *)
let test_ladder_two_apps () =
  if not (Sys.file_exists leakage_dir) then Alcotest.skip ();
  let other =
    Apk.make_text "other"
      ~manifest:
        (Apk.simple_manifest ~package:"t" [ (FW.Activity, "t.Main", []) ])
      [ good_unit ]
  in
  let config = { Config.default with Config.max_propagations = 10 } in
  let fb =
    Infoflow.analyze_with_fallback ~config [ Apk.of_dir leakage_dir; other ]
  in
  Alcotest.(check bool) "not precise" true
    (fb.Infoflow.fb_completeness <> Infoflow.Precise);
  Alcotest.(check string) "first attempt" "full"
    (List.hd fb.Infoflow.fb_attempts).Infoflow.at_label

let manifest_with_bad_bits =
  {|<?xml version="1.0" encoding="utf-8"?>
<manifest package="t">
  <application>
    <activity android:name=".Main">
      <intent-filter>
        <action android:name="android.intent.action.MAIN"/>
        <category android:name="android.intent.category.LAUNCHER"/>
      </intent-filter>
    </activity>
    <activity android:enabled="notabool" android:name=".Other"/>
    <activity android:name=".Broken"/>
  </application>
</manifest>|}

let test_lenient_survives_corruption () =
  (* strict mode refuses the broken unit outright *)
  (match
     Apk.make_text "strict" ~manifest:manifest_with_bad_bits
       [ good_unit; broken_unit ]
   with
  | exception Apk.Load_error _ -> ()
  | _ -> Alcotest.fail "strict make_text should raise");
  (* lenient mode: the bad unit, the bad manifest component and the
     component whose class was lost are all skipped with diagnostics,
     and the surviving class still yields the flow *)
  let apk =
    Apk.make_text ~mode:`Lenient "lenient" ~manifest:manifest_with_bad_bits
      [ good_unit; broken_unit ]
  in
  Alcotest.(check int) "bundle diagnostic for bad unit" 1
    (List.length apk.Apk.apk_diags);
  (match List.hd apk.Apk.apk_diags with
  | d ->
      Alcotest.(check bool) "diag carries a line" true
        (d.R.Diag.d_line <> None));
  let r = Infoflow.analyze_apk ~mode:`Lenient apk in
  Alcotest.(check bool) "diagnostics recorded" true
    (List.length r.Infoflow.r_diags >= 3);
  Alcotest.(check bool) "analysis completed" true
    (R.Outcome.is_complete r.Infoflow.r_stats.Infoflow.st_outcome);
  Alcotest.(check int) "surviving class still leaks" 1
    (List.length r.Infoflow.r_findings)

let test_lenient_corrupted_manifest () =
  let truncated = {|<?xml version="1.0"?><manifest package="t"><application>|} in
  (* strict load refuses *)
  (match Apk.load (Apk.make_text "strict" ~manifest:truncated [ good_unit ])
   with
  | exception Apk.Load_error _ -> ()
  | _ -> Alcotest.fail "strict load should raise");
  (* lenient load degrades to an empty manifest with a diagnostic *)
  let loaded =
    Apk.load ~mode:`Lenient
      (Apk.make_text ~mode:`Lenient "lenient" ~manifest:truncated
         [ good_unit ])
  in
  Alcotest.(check int) "no components" 0 (List.length loaded.Apk.components);
  Alcotest.(check bool) "manifest diagnostic" true (loaded.Apk.diags <> [])

let test_lenient_bad_layout () =
  let manifest =
    Apk.simple_manifest ~package:"t" [ (FW.Activity, "t.Main", []) ]
  in
  let apk =
    Apk.make_text ~mode:`Lenient "layouts" ~manifest
      ~layouts:[ ("good", "<LinearLayout/>"); ("bad", "<unclosed") ]
      [ good_unit ]
  in
  let loaded = Apk.load ~mode:`Lenient apk in
  Alcotest.(check bool) "bad layout diagnosed" true
    (List.exists
       (fun (d : R.Diag.t) ->
         (* the diagnostic names the offending file *)
         String.length d.R.Diag.d_file > 0
         && String.ends_with ~suffix:"bad.xml" d.R.Diag.d_file)
       loaded.Apk.diags);
  Alcotest.(check bool) "good layout survived" true
    (match Fd_frontend.Layout.layout_id loaded.Apk.layout "good" with
    | Some _ -> true
    | None -> false)

(* one malformed layout in one app of a merged load drops only that
   file, exactly as it does in a one-app load *)
let test_lenient_merged_bad_layout () =
  let manifest cls =
    Apk.simple_manifest ~package:"t" [ (FW.Activity, cls, []) ]
  in
  let other_unit =
    {|class t.Other extends android.app.Activity {
  method void onCreate(android.os.Bundle) {
    local b : android.os.Bundle;
    this := @this: t.Other;
    b := @parameter0;
    return;
  }
}|}
  in
  let good =
    Apk.make_text "good" ~manifest:(manifest "t.Main")
      ~layouts:[ ("main", "<LinearLayout/>") ] [ good_unit ]
  in
  let bad_layout mode =
    Apk.make_text ~mode "bad" ~manifest:(manifest "t.Other")
      ~layouts:[ ("other", "<unclosed") ] [ other_unit ]
  in
  (match Apk.load_merged [ good; bad_layout `Strict ] with
  | exception Apk.Load_error _ -> ()
  | _ -> Alcotest.fail "strict merged load should raise");
  let m = Apk.load_merged ~mode:`Lenient [ good; bad_layout `Lenient ] in
  let loaded = m.Apk.m_loaded in
  Alcotest.(check bool) "skipped layout diagnosed" true
    (List.exists
       (fun (d : R.Diag.t) ->
         String.starts_with ~prefix:"skipped layout" d.R.Diag.d_msg
         && String.ends_with ~suffix:"other.xml" d.R.Diag.d_file)
       loaded.Apk.diags);
  Alcotest.(check int) "both components kept" 2
    (List.length loaded.Apk.components);
  Alcotest.(check bool) "good layout survived" true
    (Fd_frontend.Layout.layout_id loaded.Apk.layout "main" <> None)

(* ---------------- I/O errors are Load_error, never Sys_error ----- *)

let test_of_dir_io_errors () =
  (match Apk.of_dir "/nonexistent/surely/not/here" with
  | exception Apk.Load_error _ -> ()
  | exception Sys_error msg ->
      Alcotest.fail ("Sys_error escaped of_dir: " ^ msg)
  | _ -> Alcotest.fail "of_dir on a missing dir should fail");
  (* a directory with a manifest entry that is itself a directory:
     open_in fails with Sys_error, which must surface as Load_error *)
  let tmp = Filename.temp_file "fd_res" "" in
  Sys.remove tmp;
  Unix.mkdir tmp 0o755;
  Unix.mkdir (Filename.concat tmp "AndroidManifest.xml") 0o755;
  Fun.protect
    ~finally:(fun () ->
      Unix.rmdir (Filename.concat tmp "AndroidManifest.xml");
      Unix.rmdir tmp)
    (fun () ->
      match Apk.of_dir tmp with
      | exception Apk.Load_error _ -> ()
      | exception Sys_error msg ->
          Alcotest.fail ("Sys_error escaped of_dir: " ^ msg)
      | _ -> Alcotest.fail "of_dir on a bogus manifest should fail")

(* ---------------- chaos over DroidBench never escapes ------------ *)

let test_chaos_suite_never_escapes () =
  let chaos = R.Chaos.create ~seed:20140609 ~rate:0.1 in
  let escaped = ref [] in
  let completed = ref 0 in
  List.iter
    (fun (app : Fd_droidbench.Bench_app.t) ->
      let apk = app.Fd_droidbench.Bench_app.app_apk in
      let label = app.Fd_droidbench.Bench_app.app_name in
      match
        R.Barrier.protect ~label (fun () ->
            let sources =
              List.map
                (fun cls ->
                  R.Chaos.corrupt_string chaos
                    (Fd_ir.Pretty.class_to_string cls))
                apk.Apk.apk_classes
            in
            let corrupted =
              Apk.make_text ~mode:`Lenient label
                ~manifest:apk.Apk.apk_manifest
                ~layouts:apk.Apk.apk_layouts sources
            in
            Infoflow.analyze_with_fallback ~mode:`Lenient ~chaos [ corrupted ])
      with
      | Ok _ -> incr completed
      | Error _ -> incr completed  (* crashed, but the barrier held *)
      | exception e -> escaped := (label, Printexc.to_string e) :: !escaped)
    Fd_droidbench.Suite.all;
  Alcotest.(check (list (pair string string)))
    "no exception escapes the barrier" [] !escaped;
  Alcotest.(check int) "every app produced an outcome"
    (List.length Fd_droidbench.Suite.all)
    !completed

let () =
  Alcotest.run "fd_resilience"
    [
      ( "outcome",
        [ Alcotest.test_case "taxonomy" `Quick test_outcome_taxonomy ] );
      ( "budget",
        [
          Alcotest.test_case "propagation cap" `Quick test_budget_cap;
          Alcotest.test_case "zero deadline" `Quick test_budget_deadline;
          Alcotest.test_case "cancellation" `Quick test_budget_cancel;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "deterministic" `Quick test_chaos_deterministic;
          Alcotest.test_case "barrier" `Quick test_barrier;
        ] );
      ( "solver",
        [
          Alcotest.test_case "deadline mid-solve" `Quick
            test_deadline_mid_solve;
          Alcotest.test_case "ladder shape" `Quick test_ladder_shape;
          Alcotest.test_case "ladder converges" `Quick test_ladder_converges;
          Alcotest.test_case "ladder over two apps" `Quick test_ladder_two_apps;
        ] );
      ( "lenient frontend",
        [
          Alcotest.test_case "survives corruption" `Quick
            test_lenient_survives_corruption;
          Alcotest.test_case "corrupted manifest" `Quick
            test_lenient_corrupted_manifest;
          Alcotest.test_case "bad layout" `Quick test_lenient_bad_layout;
          Alcotest.test_case "I/O errors" `Quick test_of_dir_io_errors;
          Alcotest.test_case "merged bad layout" `Quick
            test_lenient_merged_bad_layout;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "chaos suite never escapes" `Quick
            test_chaos_suite_never_escapes;
        ] );
    ]
