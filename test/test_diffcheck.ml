(* The differential-validation harness:

   - the verdict classifier's full decision table;
   - campaign determinism: verdict digests are bit-identical at any
     job count;
   - the generator's limitation plants land in their intended buckets,
     with the dynamic interpreter actually observing the FN plants
     (reflection model, clinit placement);
   - the delta-debugging minimizer shrinks an app while preserving the
     target verdict's full observation signature;
   - the checked-in minimized reproducers under examples/repro still
     witness their documented limitation category. *)

module Gen = Fd_appgen.Generator
module Dc = Fd_diffcheck.Diffcheck
module V = Fd_diffcheck.Verdict
module Minimize = Fd_diffcheck.Minimize
module Apk = Fd_frontend.Apk

let k src snk : V.key = (Some src, Some snk)

let bucket_of verdicts key =
  match List.find_opt (fun v -> v.V.v_key = key) verdicts with
  | Some v -> v.V.v_bucket
  | None -> Alcotest.failf "no verdict for key %s" (V.string_of_key key)

(* --- classifier decision table --- *)

let test_classify_table () =
  let gt = [ (Some "s1", "k1") ] in
  let limits =
    [
      ((Some "fpsrc", "fpsnk"), Gen.Lim_array_index);
      ((Some "fnsrc", "fnsnk"), Gen.Lim_reflection);
      ((Some "unex", "unex"), Gen.Lim_strong_update);
      ((Some "cold", "cold"), Gen.Lim_clinit);
    ]
  in
  let verdicts =
    V.classify ~fixed:[]
      ~static:[ k "s1" "k1"; k "both" "both"; k "fpsrc" "fpsnk"; k "bad" "bad" ]
      ~dynamic:[ k "both" "both"; k "fnsrc" "fnsnk"; k "ghost" "ghost" ]
      ~expected:((Some "missing", "missing") :: gt)
      ~limits
  in
  let check key expect =
    Alcotest.(check string)
      (V.string_of_key key) expect
      (V.string_of_bucket (bucket_of verdicts key))
  in
  check (k "both" "both") "confirmed";
  (* static-only but planted: ground truth corroborates *)
  check (k "s1" "k1") "confirmed";
  check (k "fpsrc" "fpsnk") "explained-FP(array-index)";
  check (k "bad" "bad") "DIVERGENCE(spurious-static)";
  check (k "fnsrc" "fnsnk") "explained-FN(reflection)";
  check (k "ghost" "ghost") "DIVERGENCE(missed-dynamic)";
  check (k "missing" "missing") "DIVERGENCE(missed-ground-truth)";
  (* an FP plant neither engine touched: precision exceeded the
     documented limitation *)
  check (k "unex" "unex") "unexercised(strong-update)";
  (* an FN plant neither engine touched: still an explained FN (the
     driver's coverage just did not reach it) *)
  check (k "cold" "cold") "explained-FN(clinit-placement)";
  (* output is keyed and sorted: classifying twice agrees *)
  let again =
    V.classify ~fixed:[]
      ~static:[ k "bad" "bad"; k "fpsrc" "fpsnk"; k "both" "both"; k "s1" "k1" ]
      ~dynamic:[ k "ghost" "ghost"; k "fnsrc" "fnsnk"; k "both" "both" ]
      ~expected:((Some "missing", "missing") :: gt)
      ~limits
  in
  Alcotest.(check bool) "order-insensitive" true (verdicts = again)

(* --- campaign determinism across job counts --- *)

let test_campaign_jobs_deterministic () =
  let run jobs = Dc.campaign ~jobs ~profile:Gen.Play ~seed:99 ~n:6 () in
  let c1 = run 1 and c2 = run 2 in
  Alcotest.(check string) "digest jobs=1 vs jobs=2" (Dc.digest c1)
    (Dc.digest c2);
  Alcotest.(check bool) "verdict lines equal" true
    (Dc.verdict_lines c1 = Dc.verdict_lines c2)

(* --- plants land in their buckets; FN plants are dynamically observed --- *)

let test_plants_classify () =
  let reports =
    List.concat_map
      (fun profile ->
        (Dc.campaign ~jobs:2 ~profile ~seed:20140609 ~n:40 ()).Dc.cp_reports)
      [ Gen.Play; Gen.Malware ]
  in
  let verdicts = List.concat_map (fun ar -> ar.Dc.ar_verdicts) reports in
  List.iter
    (fun ar ->
      Alcotest.(check (list string))
        (ar.Dc.ar_name ^ " has no divergences")
        []
        (List.map
           (fun v -> V.string_of_bucket v.V.v_bucket)
           (Dc.divergences ar)))
    reports;
  let observed_fn lim =
    List.exists
      (fun v ->
        v.V.v_bucket = V.Explained_fn lim && v.V.v_dynamic && not v.V.v_static)
      verdicts
  in
  (* the interpreter's reflection model and clinit placement really
     observe leaks the static engine misses — the FN buckets are not
     just the nobody-saw-it fallback *)
  Alcotest.(check bool) "reflection FN observed dynamically" true
    (observed_fn Gen.Lim_reflection);
  Alcotest.(check bool) "clinit FN observed dynamically" true
    (observed_fn Gen.Lim_clinit);
  let fp lim =
    List.exists (fun v -> v.V.v_bucket = V.Explained_fp lim) verdicts
  in
  Alcotest.(check bool) "array-index FP exercised" true
    (fp Gen.Lim_array_index);
  Alcotest.(check bool) "strong-update FP exercised" true
    (fp Gen.Lim_strong_update)

(* --- the minimizer preserves the observation signature and shrinks --- *)

let test_minimizer () =
  (* find a generated app carrying an exercised FP plant *)
  let apps = Gen.corpus ~profile:Gen.Malware ~seed:20140609 40 in
  let pick =
    List.find_map
      (fun (ga : Gen.gen_app) ->
        let ar = Dc.check_gen ga in
        Option.map
          (fun v -> (ga, v))
          (List.find_opt
             (fun v ->
               match v.V.v_bucket with V.Explained_fp _ -> true | _ -> false)
             ar.Dc.ar_verdicts))
      apps
  in
  match pick with
  | None -> Alcotest.fail "no exercised FP plant in 40 apps"
  | Some (ga, v) ->
      let before = Minimize.stmt_count ga.Gen.ga_apk in
      let small =
        Minimize.minimize ~expected:ga.Gen.ga_expected ~limits:ga.Gen.ga_limits
          ~target:v ga.Gen.ga_apk
      in
      let after = Minimize.stmt_count small in
      Alcotest.(check bool)
        (Printf.sprintf "shrank (%d -> %d stmts)" before after)
        true (after < before);
      Alcotest.(check bool)
        (Printf.sprintf "minimal reproducer is small (%d <= 30)" after)
        true (after <= 30);
      (* the verdict survives on the minimized app *)
      let ar =
        Dc.check_apk ~name:"minimized" ~expected:ga.Gen.ga_expected
          ~limits:ga.Gen.ga_limits small
      in
      let v' =
        List.find_opt (fun w -> w.V.v_key = v.V.v_key) ar.Dc.ar_verdicts
      in
      (match v' with
      | Some v' ->
          Alcotest.(check string)
            "bucket preserved"
            (V.string_of_bucket v.V.v_bucket)
            (V.string_of_bucket v'.V.v_bucket);
          Alcotest.(check bool) "static bit preserved" v.V.v_static v'.V.v_static;
          Alcotest.(check bool) "dynamic bit preserved" v.V.v_dynamic
            v'.V.v_dynamic
      | None -> Alcotest.fail "target key vanished from minimized app");
      (* the textual reproducer round-trips through the frontend *)
      let text =
        String.concat "\n\n"
          (List.map Fd_ir.Pretty.class_to_string small.Apk.apk_classes)
      in
      let reparsed =
        Apk.make_text "roundtrip" ~manifest:small.Apk.apk_manifest [ text ]
      in
      ignore (Apk.load reparsed)

(* --- checked-in minimized reproducers --- *)

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

let check_repro ~fn dir () =
  let dir = Filename.concat repro_root dir in
  let key = parse_key (read_repro_key dir) in
  let apk = Apk.of_dir dir in
  let static, _ = Dc.static_findings [ apk ] in
  let dynamic = Dc.dynamic_findings [ apk ] in
  if fn then begin
    (* a real leak the static engine is documented to miss *)
    Alcotest.(check bool) "dynamic observes the leak" true
      (List.mem key dynamic);
    Alcotest.(check bool) "static misses the leak" false (List.mem key static)
  end
  else begin
    (* a spurious flow the static engine is documented to report *)
    Alcotest.(check bool) "static reports the flow" true (List.mem key static);
    Alcotest.(check bool) "dynamic never observes it" false
      (List.mem key dynamic)
  end

let () =
  Alcotest.run "diffcheck"
    [
      ( "verdict",
        [
          Alcotest.test_case "classifier decision table" `Quick
            test_classify_table;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "digest invariant under job count" `Quick
            test_campaign_jobs_deterministic;
          Alcotest.test_case "plants classify, FNs dynamically observed"
            `Slow test_plants_classify;
        ] );
      ( "minimize",
        [ Alcotest.test_case "shrinks preserving verdict" `Slow test_minimizer ]
      );
      ( "repro",
        [
          Alcotest.test_case "fn-reflection" `Quick
            (check_repro ~fn:true "fn-reflection");
          Alcotest.test_case "fn-clinit-placement" `Quick
            (check_repro ~fn:true "fn-clinit-placement");
          Alcotest.test_case "fp-array-index" `Quick
            (check_repro ~fn:false "fp-array-index");
          Alcotest.test_case "fp-strong-update" `Quick
            (check_repro ~fn:false "fp-strong-update");
        ] );
    ]
