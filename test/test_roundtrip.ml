(* Whole-corpus integration test: every DroidBench app's code must
   survive a Pretty → Parser round trip, and the analysis of the
   re-parsed app must report exactly the same flows as the original.

   This exercises the textual µJimple frontend on ~39 realistic apps
   (every statement shape the benchmarks use) and pins the semantics
   of printing/parsing to "observably identical program". *)

open Fd_ir
module Bench_app = Fd_droidbench.Bench_app
module Apk = Fd_frontend.Apk

let reparse_apk (apk : Apk.t) =
  let sources =
    List.map Pretty.class_to_string apk.Apk.apk_classes
  in
  Apk.make_text (apk.Apk.apk_name ^ "-reparsed")
    ~manifest:apk.Apk.apk_manifest ~layouts:apk.Apk.apk_layouts sources

let findings apk =
  let r = Fd_core.Infoflow.analyze_apk apk in
  List.map
    (fun (fd : Fd_core.Bidi.finding) ->
      ( fd.Fd_core.Bidi.f_source.Fd_core.Taint.si_tag,
        fd.Fd_core.Bidi.f_sink_tag ))
    r.Fd_core.Infoflow.r_findings
  |> List.sort_uniq compare

let test_roundtrip_app (app : Bench_app.t) () =
  let original = app.Bench_app.app_apk in
  let reparsed = reparse_apk original in
  (* structural: same classes, same methods with the same statement
     counts *)
  List.iter2
    (fun (c1 : Jclass.t) (c2 : Jclass.t) ->
      Alcotest.(check string) "class name" c1.Jclass.c_name c2.Jclass.c_name;
      Alcotest.(check int)
        (c1.Jclass.c_name ^ " method count")
        (List.length c1.Jclass.c_methods)
        (List.length c2.Jclass.c_methods);
      List.iter2
        (fun (m1 : Jclass.jmethod) (m2 : Jclass.jmethod) ->
          match (m1.Jclass.jm_body, m2.Jclass.jm_body) with
          | Some b1, Some b2 ->
              Alcotest.(check int)
                (Printf.sprintf "%s.%s stmt count" c1.Jclass.c_name
                   m1.Jclass.jm_sig.Types.m_name)
                (Body.length b1) (Body.length b2)
          | None, None -> ()
          | _ -> Alcotest.fail "body presence differs")
        c1.Jclass.c_methods c2.Jclass.c_methods)
    original.Apk.apk_classes reparsed.Apk.apk_classes;
  (* behavioural: identical analysis results *)
  Alcotest.(check (list (pair (option string) (option string))))
    "identical findings after round trip" (findings original)
    (findings reparsed)

(* [Apk.to_dir] then [Apk.of_dir]: PrivateDataLeak1's leak needs its
   password layout, so a writer that drops layouts loses the leak *)
let test_dir_roundtrip () =
  let app = Option.get (Fd_droidbench.Suite.find "PrivateDataLeak1") in
  let apk = app.Bench_app.app_apk in
  let dir = Filename.temp_dir "fd_roundtrip" "" in
  let app_dir = Filename.concat dir apk.Apk.apk_name in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let back =
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        Apk.to_dir app_dir apk;
        Apk.of_dir app_dir)
  in
  Alcotest.(check (list (pair string string)))
    "layouts" apk.Apk.apk_layouts back.Apk.apk_layouts;
  Alcotest.(check int) "one leak" 1 (List.length (findings apk));
  Alcotest.(check (list (pair (option string) (option string))))
    "same findings" (findings apk) (findings back)

let () =
  Alcotest.run "fd_roundtrip"
    [
      ("app-dir", [ Alcotest.test_case "to_dir/of_dir" `Quick test_dir_roundtrip ]);
      ( "droidbench-corpus",
        List.map
          (fun (app : Bench_app.t) ->
            Alcotest.test_case app.Bench_app.app_name `Slow
              (test_roundtrip_app app))
          Fd_droidbench.Suite.all );
    ]
