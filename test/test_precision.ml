(* The opt-in precision pass suite (Config.precision):

   - each checked-in minimized reproducer under examples/repro flips
     its verdict when exactly its pass is enabled (fp-* constructs are
     no longer reported, fn-* constructs are now detected) and stays
     put with every pass off;
   - soundness: enabling all passes never adds a static finding the
     dynamic interpreter does not observe (qcheck over the generated
     corpus);
   - a flags-on campaign classifies every limitation plant without
     divergences: FN plants confirm, FP plants land in fixed(...). *)

open Fd_core
module Gen = Fd_appgen.Generator
module Dc = Fd_diffcheck.Diffcheck
module V = Fd_diffcheck.Verdict
module Apk = Fd_frontend.Apk

let with_pass f = { Config.default with Config.precision = f }

let pass_must_alias =
  with_pass { Config.no_precision with Config.must_alias = true }

let pass_array_index =
  with_pass { Config.no_precision with Config.array_index = true }

let pass_reflection =
  with_pass { Config.no_precision with Config.reflection = true }

let pass_clinit = with_pass { Config.no_precision with Config.clinit = true }
let all_on = with_pass Config.all_precision

(* --- the four minimized reproducers --- *)

let repro_root = Filename.concat (Filename.concat ".." "examples") "repro"

let read_repro_key dir =
  let ic = open_in (Filename.concat dir "REPRO.txt") in
  let rec find () =
    match input_line ic with
    | line when String.length line > 5 && String.sub line 0 5 = "key: " ->
        close_in ic;
        String.sub line 5 (String.length line - 5)
    | _ -> find ()
    | exception End_of_file ->
        close_in ic;
        Alcotest.failf "no key line in %s/REPRO.txt" dir
  in
  find ()

let parse_key s : V.key =
  match String.index_opt s '-' with
  | Some i when i + 1 < String.length s && s.[i + 1] = '>' ->
      let part p = if p = "?" then None else Some p in
      ( part (String.sub s 0 i),
        part (String.sub s (i + 2) (String.length s - i - 2)) )
  | _ -> Alcotest.failf "malformed key %S" s

(* [check_flip ~fn dir config] — with every pass off the reproducer
   witnesses its documented limitation; with [config]'s pass on the
   verdict flips: an fn-* leak is detected, an fp-* flow vanishes. *)
let check_flip ~fn dir config () =
  let dir = Filename.concat repro_root dir in
  let key = parse_key (read_repro_key dir) in
  let apk = Apk.of_dir dir in
  let off, _ = Dc.static_findings [ apk ] in
  let on, _ = Dc.static_findings ~config [ apk ] in
  if fn then begin
    Alcotest.(check bool) "passes off: leak still missed" false
      (List.mem key off);
    Alcotest.(check bool) "pass on: leak detected" true (List.mem key on)
  end
  else begin
    Alcotest.(check bool) "passes off: spurious flow still reported" true
      (List.mem key off);
    Alcotest.(check bool) "pass on: spurious flow gone" false
      (List.mem key on)
  end

let keys_of config apk = fst (Dc.static_findings ~config [ apk ])

(* --- a strong update keeps the alias its own write stores --- *)

(* [q.f = p] writes through [q], which must-aliases [b]: the backward
   search injects the alias [b.f], whose activation statement is that
   write.  The strong update at the write must not kill it, or the
   read [t = b.f] misses the leak under the must-alias pass. *)
let own_write_app =
  Apk.make_text "OwnWrite"
    ~manifest:
      {|<?xml version="1.0" encoding="utf-8"?>
<manifest package="t.ma">
  <application>
    <activity android:name="t.ma.MainActivity">
      <intent-filter>
        <action android:name="android.intent.action.MAIN"/>
        <category android:name="android.intent.category.LAUNCHER"/>
      </intent-filter>
    </activity>
  </application>
</manifest>|}
    [
      {|class t.ma.MainActivity extends android.app.Activity {
  method void onCreate(android.os.Bundle) {
    local b : t.ma.Box;
    local q : t.ma.Box;
    local p : java.lang.String;
    local t : java.lang.String;
    local tm : android.telephony.TelephonyManager;
    b = new t.ma.Box;
    q = b;
    p = virtualinvoke tm.android.telephony.TelephonyManager#getDeviceId() @"src";
    q.t.ma.Box#f = p;
    t = b.t.ma.Box#f;
    staticinvoke android.util.Log#i("x", t) @"snk";
    return;
  }
}|};
    ]

let test_own_write_alias () =
  List.iter
    (fun (name, config) ->
      Alcotest.(check (list (pair (option string) (option string))))
        (name ^ ": the leak through the alias is found")
        [ (Some "src", Some "snk") ]
        (keys_of config own_write_app))
    [ ("none", Config.default); ("must-alias", pass_must_alias);
      ("all", all_on) ]

(* --- soundness: passes only remove spurious flows or surface real
   ones --- *)

let test_soundness =
  QCheck.Test.make ~name:"flags-on findings are dynamically corroborated"
    ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let profile = if seed mod 2 = 0 then Gen.Play else Gen.Malware in
      let ga = Gen.generate ~profile ~seed 0 in
      let off = keys_of Config.default ga.Gen.ga_apk in
      let on = keys_of all_on ga.Gen.ga_apk in
      let dynamic = Dc.dynamic_findings [ ga.Gen.ga_apk ] in
      List.for_all
        (fun k -> List.mem k off || List.mem k dynamic)
        on)

(* --- flags-on campaign: plants reclassify, no divergences --- *)

let test_campaign_flags_on () =
  List.iter
    (fun profile ->
      let c =
        Dc.campaign ~config:all_on ~jobs:2 ~profile ~seed:20140609 ~n:20 ()
      in
      List.iter
        (fun ar ->
          Alcotest.(check (list string))
            (ar.Dc.ar_name ^ " has no divergences")
            []
            (List.map
               (fun v -> V.string_of_bucket v.V.v_bucket)
               (Dc.divergences ar)))
        c.Dc.cp_reports;
      let verdicts =
        List.concat_map (fun ar -> ar.Dc.ar_verdicts) c.Dc.cp_reports
      in
      (* no explained-* bucket may survive when its pass is on *)
      List.iter
        (fun v ->
          match v.V.v_bucket with
          | V.Explained_fn _ | V.Explained_fp _ | V.Unexercised _ ->
              Alcotest.failf "%s still classified %s under all passes"
                (V.string_of_key v.V.v_key)
                (V.string_of_bucket v.V.v_bucket)
          | V.Confirmed | V.Fixed _ | V.Divergence _ -> ())
        verdicts)
    [ Gen.Play; Gen.Malware ]

(* --- flags-off stability: the precision plumbing is inert by
   default --- *)

let test_flags_off_digest () =
  let run config =
    Dc.campaign ?config ~jobs:2 ~profile:Gen.Malware ~seed:7 ~n:8 ()
  in
  let base = run None in
  let off = run (Some { Config.default with Config.precision = Config.no_precision }) in
  Alcotest.(check string) "digest unchanged with explicit no_precision"
    (Dc.digest base) (Dc.digest off)

(* --- config surface --- *)

let test_precision_of_string () =
  let ok s = function
    | Ok p -> Alcotest.(check string) s s (Config.string_of_precision p)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "none" (Config.precision_of_string "none");
  ok "all" (Config.precision_of_string "all");
  ok "must-alias" (Config.precision_of_string "must-alias");
  ok "array-index,reflection"
    (Config.precision_of_string "array-index,reflection");
  (match Config.precision_of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus accepted");
  Alcotest.(check bool) "enabled" true
    (Config.precision_enabled Config.all_precision);
  Alcotest.(check bool) "not enabled" false
    (Config.precision_enabled Config.no_precision)

let () =
  Alcotest.run "precision"
    [
      ( "repro-flip",
        [
          Alcotest.test_case "fp-strong-update / must-alias" `Quick
            (check_flip ~fn:false "fp-strong-update" pass_must_alias);
          Alcotest.test_case "fp-array-index / array-index" `Quick
            (check_flip ~fn:false "fp-array-index" pass_array_index);
          Alcotest.test_case "fn-reflection / reflection" `Quick
            (check_flip ~fn:true "fn-reflection" pass_reflection);
          Alcotest.test_case "fn-clinit-placement / clinit" `Quick
            (check_flip ~fn:true "fn-clinit-placement" pass_clinit);
        ] );
      ( "must-alias",
        [
          Alcotest.test_case "a write keeps the alias it stores" `Quick
            test_own_write_alias;
        ] );
      ( "soundness",
        [ QCheck_alcotest.to_alcotest ~long:true test_soundness ] );
      ( "campaign",
        [
          Alcotest.test_case "flags-on: plants reclassify, no divergences"
            `Slow test_campaign_flags_on;
          Alcotest.test_case "flags-off digest is inert" `Quick
            test_flags_off_digest;
        ] );
      ( "config",
        [
          Alcotest.test_case "precision_of_string round-trips" `Quick
            test_precision_of_string;
        ] );
    ]
