(* Cross-cutting property tests over the engines:

   - soundness on the supported fragment: any leak the concrete
     interpreter observes on a generated app is either reported by the
     static analysis or classified as an explained false negative
     carrying a documented limitation category
     (dynamic ⊆ static ∪ explained-FN);
   - over-approximation ordering: shortening the access-path bound k
     never loses findings (truncation widens);
   - determinism: repeated analyses agree;
   - no sources -> no findings;
   - the config codec: decoding a config's own encoding onto
     [Config.default], directly or through JSON text, gives it back. *)

open Fd_ir
module B = Build
module T = Types
module Gen = Fd_appgen.Generator

let static_findings ?(config = Fd_core.Config.default) apk =
  let r = Fd_core.Infoflow.analyze_apk ~config apk in
  List.map
    (fun (fd : Fd_core.Bidi.finding) ->
      ( fd.Fd_core.Bidi.f_source.Fd_core.Taint.si_tag,
        fd.Fd_core.Bidi.f_sink_tag ))
    r.Fd_core.Infoflow.r_findings
  |> List.sort_uniq compare

let dynamic_findings apk =
  match Fd_frontend.Apk.load_merged [ apk ] with
  | exception Fd_frontend.Apk.Load_error _ -> []
  | m -> Fd_interp.Droid_runner.findings (Fd_interp.Droid_runner.run m)

let subset a b = List.for_all (fun x -> List.mem x b) a

(* --- dynamic ⊆ static on generated apps --- *)

let prop_dynamic_subset_of_static profile =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "dynamic leaks are static findings or explained FNs (%s)"
         (Gen.string_of_profile profile))
    ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let app = Gen.generate ~profile ~seed 0 in
      let s = static_findings app.Gen.ga_apk in
      let d = dynamic_findings app.Gen.ga_apk in
      let verdicts =
        Fd_diffcheck.Verdict.classify ~fixed:[] ~static:s ~dynamic:d
          ~expected:app.Gen.ga_expected ~limits:app.Gen.ga_limits
      in
      List.for_all
        (fun k ->
          List.mem k s
          || List.exists
               (fun (v : Fd_diffcheck.Verdict.leak_verdict) ->
                 v.Fd_diffcheck.Verdict.v_key = k
                 && match v.Fd_diffcheck.Verdict.v_bucket with
                    | Fd_diffcheck.Verdict.Explained_fn _ -> true
                    | _ -> false)
               verdicts)
        d)

(* --- static recall on planted ground truth --- *)

let prop_static_finds_planted =
  QCheck.Test.make ~name:"static analysis recovers every planted leak"
    ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let app = Gen.generate ~profile:Gen.Malware ~seed 1 in
      let s = static_findings app.Gen.ga_apk in
      List.for_all
        (fun (src, snk) -> List.mem (src, Some snk) s)
        app.Gen.ga_expected)

(* --- k-monotonicity --- *)

let prop_k_monotone =
  QCheck.Test.make
    ~name:"shrinking the access-path bound never loses findings" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let app = Gen.generate ~profile:Gen.Play ~seed 2 in
      let at k =
        static_findings
          ~config:{ Fd_core.Config.default with Fd_core.Config.max_access_path = k }
          app.Gen.ga_apk
      in
      let k5 = at 5 and k1 = at 1 in
      subset k5 k1)

(* --- determinism --- *)

let prop_deterministic =
  QCheck.Test.make ~name:"analysis is deterministic" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let app = Gen.generate ~profile:Gen.Malware ~seed 3 in
      static_findings app.Gen.ga_apk = static_findings app.Gen.ga_apk)

(* --- no sources, no findings --- *)

let prop_no_source_no_finding =
  QCheck.Test.make ~name:"sink-only programs never report" ~count:30
    QCheck.(pair (int_range 1 8) (int_range 0 1000))
    (fun (n, salt) ->
      let cls = "p.NoSrc" in
      let apk =
        Fd_frontend.Apk.make "NoSrc"
          ~manifest:
            (Fd_frontend.Apk.simple_manifest ~package:"p"
               [ (Fd_frontend.Framework.Activity, cls, []) ])
          [
            B.cls cls ~super:"android.app.Activity"
              [
                B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ]
                  (fun m ->
                    let _this = B.this m in
                    let _ = B.param m 0 "b" in
                    (* n constant flows into sinks, salted values *)
                    List.iter
                      (fun i ->
                        let x = B.local m (Printf.sprintf "x%d" i) in
                        B.const m x (B.s (Printf.sprintf "v%d" (i + salt)));
                        B.scall m "android.util.Log" "i" [ B.s "t"; B.v x ])
                      (List.init n Fun.id));
              ];
          ]
      in
      static_findings apk = [] && dynamic_findings apk = [])

(* --- disabling precision features never reduces static findings on
       the generated corpus (they are all over-approximations) --- *)

let prop_naive_handover_superset =
  QCheck.Test.make
    ~name:"naive handover reports a superset of the precise engine"
    ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let app = Gen.generate ~profile:Gen.Play ~seed 4 in
      let precise = static_findings app.Gen.ga_apk in
      let naive =
        static_findings
          ~config:
            { Fd_core.Config.default with Fd_core.Config.context_injection = false }
          app.Gen.ga_apk
      in
      subset precise naive)

(* --- disabling callback discovery only removes findings --- *)

let prop_callbacks_monotone =
  QCheck.Test.make
    ~name:"disabling callbacks never adds findings" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let app = Gen.generate ~profile:Gen.Malware ~seed 5 in
      let off =
        static_findings
          ~config:{ Fd_core.Config.default with Fd_core.Config.callbacks = false }
          app.Gen.ga_apk
      in
      let on = static_findings app.Gen.ga_apk in
      subset off on)

(* --- RTA is at most as coarse as CHA on generated apps --- *)

let prop_rta_subset_of_cha =
  QCheck.Test.make ~name:"RTA findings are a subset of CHA findings"
    ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let app = Gen.generate ~profile:Gen.Play ~seed 6 in
      let rta =
        static_findings
          ~config:
            { Fd_core.Config.default with
              Fd_core.Config.cg_algorithm = Fd_callgraph.Callgraph.Rta }
          app.Gen.ga_apk
      in
      let cha = static_findings app.Gen.ga_apk in
      subset rta cha)

(* --- the config codec --- *)

module Config = Fd_core.Config
module Json = Fd_obs.Json

let options_of c =
  List.map (fun (f : Config.field) -> (f.key, f.value)) (Config.encode c)

let arb_config =
  let open QCheck.Gen in
  let gen =
    map
      (fun ((k, max_propagations, deadline_s, b), (summary_store, targeted)) ->
        {
          Config.max_access_path = k;
          lifecycle = b.(0);
          callbacks = b.(1);
          per_component_callbacks = b.(2);
          context_injection = b.(3);
          activation_statements = b.(4);
          alias_search = b.(5);
          cg_algorithm =
            (if b.(6) then Fd_callgraph.Callgraph.Rta
             else Fd_callgraph.Callgraph.Cha);
          max_propagations;
          deadline_s;
          precision =
            {
              Config.must_alias = b.(7);
              array_index = b.(8);
              reflection = b.(9);
              clinit = b.(10);
            };
          provenance = b.(11);
          profile = b.(12);
          summary_store;
          targeted;
          icc = b.(13);
        })
      (pair
         (quad (int_range 1 9) (int_range 0 5_000_000)
            (opt (float_range 0. 100.))
            (array_repeat 14 bool))
         (pair (opt string_printable) (small_list string_printable)))
  in
  QCheck.make ~print:(fun c -> Json.to_string (Json.Obj (options_of c))) gen

let prop_config_codec_roundtrip =
  QCheck.Test.make ~name:"config decode . encode = id" ~count:500 arb_config
    (fun c ->
      let options = options_of c in
      let over_the_wire =
        match Json.parse_string (Json.to_string (Json.Obj options)) with
        | Json.Obj members -> members
        | _ -> []
      in
      Config.decode Config.default options = Ok c
      && Config.decode Config.default over_the_wire = Ok c)

let test_config_decode_errors () =
  let rejects label options =
    Alcotest.(check bool) label true
      (Result.is_error (Config.decode Config.default options))
  in
  rejects "k = 0" [ ("k", Json.Int 0) ];
  rejects "k as a string" [ ("k", Json.String "5") ];
  rejects "icc as an integer" [ ("icc", Json.Int 1) ];
  rejects "targeted with a non-string" [ ("targeted", Json.List [ Json.Int 1 ]) ];
  rejects "unknown precision pass" [ ("prec", Json.String "bogus") ];
  rejects "unknown call-graph algorithm" [ ("cg", Json.String "vta") ];
  rejects "unknown key" [ ("bogus", Json.Bool true) ];
  Alcotest.(check bool) "later options win" true
    (Config.decode Config.default [ ("k", Json.Int 2); ("k", Json.Int 3) ]
    = Ok { Config.default with Config.max_access_path = 3 })

(* --- the dead-local rule is exact --- *)

module Bidi = Fd_core.Bidi
module Taint = Fd_core.Taint
module AP = Fd_core.Access_path
module Icfg = Fd_callgraph.Icfg

(* a depth-[depth] static chain carrying the IMEI to an SMS, each step
   staging the value through a heap cell in one of four ways drawn
   from [seed]: directly, through a copy of the box (an alias on a
   local read once), through a static field, or through a helper that
   writes its parameter's field *)
let chain_apk ~seed =
  let rng = Random.State.make [| seed |] in
  let depth = 2 + Random.State.int rng 7 in
  let step i =
    let stage =
      match Random.State.int rng 4 with
      | 0 -> "    b.c.Box#val = p;\n    t = b.c.Box#val;\n"
      | 1 -> "    q = b;\n    q.c.Box#val = p;\n    t = b.c.Box#val;\n"
      | 2 -> "    static c.Box#st = p;\n    t = static c.Box#st;\n"
      | _ ->
          "    staticinvoke c.Chain#put(b, p);\n    t = b.c.Box#val;\n"
    in
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : c.Box;\n\
      \    local q : c.Box;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new c.Box;\n\
      \    specialinvoke b.c.Box#<init>();\n\
       %s%s\
      \    return t;\n\
      \  }\n"
      i stage
      (if i = depth - 1 then ""
       else Printf.sprintf "    t = staticinvoke c.Chain#step%d(t);\n" (i + 1))
  in
  let box =
    "class c.Box {\n\
    \  field val : java.lang.String;\n\
    \  field st : java.lang.String;\n\
    \  method void <init>() {\n\
    \    this := @this: c.Box;\n\
    \    return;\n\
    \  }\n\
     }\n"
  in
  let activity =
    "class c.App extends android.app.Activity {\n\
    \  method void onCreate(android.os.Bundle) {\n\
    \    local tm : android.telephony.TelephonyManager;\n\
    \    local imei : java.lang.Object;\n\
    \    local out : java.lang.Object;\n\
    \    local sms : android.telephony.SmsManager;\n\
    \    this := @this: c.App;\n\
    \    tm = new android.telephony.TelephonyManager;\n\
    \    imei = virtualinvoke \
     tm.android.telephony.TelephonyManager#getDeviceId() @\"src-imei\";\n\
    \    out = staticinvoke c.Chain#step0(imei);\n\
    \    sms = staticinvoke android.telephony.SmsManager#getDefault();\n\
    \    virtualinvoke \
     sms.android.telephony.SmsManager#sendTextMessage(\"+1\", null, out, \
     null, null) @\"sink-sms\";\n\
    \    return;\n\
    \  }\n\
     }\n"
  in
  let put =
    "  static method void put(c.Box, java.lang.String) {\n\
    \    local d : c.Box;\n\
    \    local v : java.lang.Object;\n\
    \    d := @parameter0;\n\
    \    v := @parameter1;\n\
    \    d.c.Box#val = v;\n\
    \    return;\n\
    \  }\n"
  in
  let chain =
    "class c.Chain {\n" ^ put ^ String.concat "" (List.init depth step) ^ "}\n"
  in
  Fd_frontend.Apk.make_text "ChainApp"
    ~manifest:
      (Fd_frontend.Apk.simple_manifest ~package:"c"
         [ (Fd_frontend.Framework.Activity, "c.App", []) ])
    [ box; chain; activity ]

let render_findings engine =
  List.map
    (fun (fd : Bidi.finding) ->
      let node = Icfg.string_of_node in
      String.concat " | "
        ([ node fd.Bidi.f_source.Taint.si_node;
           Option.value fd.Bidi.f_source.Taint.si_tag ~default:"";
           node fd.Bidi.f_sink_node;
           String.concat "," (List.map node fd.Bidi.f_path) ]
        @ List.map
            (fun (w : Bidi.witness_step) ->
              Printf.sprintf "%s %s %s %s" (node w.Bidi.ws_node)
                w.Bidi.ws_stmt w.Bidi.ws_fact w.Bidi.ws_kind)
            fd.Bidi.f_witness))
    (Bidi.findings engine)

(* The rule, restated from its definition: an active taint rooted at a
   local that is not live-in at the node, unless it is a field path of
   [this] or a parameter.  [pruning_exact] solves [apk] with the rule
   and without it: the findings and witnesses must be equal, and each
   node's [results_at] must be the unpruned list less the taints the
   rule drops, in the same order.  With [leaks], a finding must
   exist. *)
let pruning_exact ~leaks ~config apk =
  let r = Fd_core.Infoflow.analyze_apk ~config apk in
  let pruned = r.Fd_core.Infoflow.r_engine in
  let plain = Bidi.fresh ~prune_dead:false pruned in
  Bidi.run plain ~entries:r.Fd_core.Infoflow.r_entries;
  let cg = r.Fd_core.Infoflow.r_icfg.Icfg.cg in
  let nodes_agree m =
    match Fd_callgraph.Callgraph.body_of cg m with
    | exception Not_found -> true
    | body ->
        let lv = Liveness.analyze body in
        let this_l, params = Body.param_locals body in
        let carried x =
          List.exists (Stmt.equal_local x)
            (Option.to_list this_l @ List.map snd params)
        in
        let dropped i (t : Taint.t) =
          t.Taint.active
          &&
          match t.Taint.ap.AP.base with
          | AP.Bloc x ->
              (not (Liveness.live_in lv i x))
              && not (AP.length t.Taint.ap > 0 && carried x)
          | AP.Bstatic _ -> false
        in
        List.for_all
          (fun i ->
            let n = Icfg.{ n_method = m; n_idx = i } in
            List.equal
              (fun a b -> Taint.equal (Taint.T a) (Taint.T b))
              (Bidi.results_at pruned n)
              (List.filter
                 (fun t -> not (dropped i t))
                 (Bidi.results_at plain n)))
          (List.init (Body.length body) Fun.id)
  in
  let found = render_findings pruned in
  ((not leaks) || found <> [])
  && found = render_findings plain
  && List.for_all nodes_agree (Fd_callgraph.Callgraph.reachable_methods cg)

let prop_pruning_exact ?(leaks = false) name apk_of =
  QCheck.Test.make
    ~name:(Printf.sprintf "the dead-local rule is exact (%s)" name)
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let apk = apk_of seed in
      List.for_all
        (fun (leaks, precision) ->
          pruning_exact ~leaks
            ~config:
              { Fd_core.Config.default with
                Fd_core.Config.provenance = true; precision }
            apk)
        [ (leaks, Fd_core.Config.no_precision);
          (leaks, Fd_core.Config.all_precision) ])

(* An active taint is an ordinary taint: {!Taint.activate} drops the
   activation statement, so every active taint the forward solver
   holds at any node carries none, and every inactive one carries
   its own *)
let activation_plain ~config apk =
  let r = Fd_core.Infoflow.analyze_apk ~config apk in
  let engine = r.Fd_core.Infoflow.r_engine in
  let cg = r.Fd_core.Infoflow.r_icfg.Icfg.cg in
  List.for_all
    (fun m ->
      match Fd_callgraph.Callgraph.body_of cg m with
      | exception Not_found -> true
      | body ->
          List.for_all
            (fun i ->
              List.for_all
                (fun (t : Taint.t) ->
                  t.Taint.active = Option.is_none t.Taint.activation)
                (Bidi.results_at engine Icfg.{ n_method = m; n_idx = i }))
            (List.init (Body.length body) Fun.id))
    (Fd_callgraph.Callgraph.reachable_methods cg)

let prop_activation_plain name apk_of =
  QCheck.Test.make
    ~name:(Printf.sprintf "active taints carry no activation (%s)" name)
    ~count:8
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let apk = apk_of seed in
      List.for_all
        (fun precision ->
          activation_plain
            ~config:{ Fd_core.Config.default with Fd_core.Config.precision }
            apk)
        [ Fd_core.Config.no_precision; Fd_core.Config.all_precision ])

let generated profile seed = (Gen.generate ~profile ~seed 4).Gen.ga_apk

let () =
  Alcotest.run "fd_properties"
    [
      ( "engine-properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dynamic_subset_of_static Gen.Malware;
            prop_dynamic_subset_of_static Gen.Play;
            prop_static_finds_planted;
            prop_k_monotone;
            prop_deterministic;
            prop_no_source_no_finding;
            prop_naive_handover_superset;
            prop_callbacks_monotone;
            prop_rta_subset_of_cha;
            prop_pruning_exact "malware" (generated Gen.Malware);
            prop_pruning_exact "play" (generated Gen.Play);
            prop_pruning_exact "icc" (generated Gen.Icc);
            prop_pruning_exact ~leaks:true "chain" (fun seed -> chain_apk ~seed);
            prop_activation_plain "malware" (generated Gen.Malware);
            prop_activation_plain "play" (generated Gen.Play);
            prop_activation_plain "icc" (generated Gen.Icc);
            prop_activation_plain "chain" (fun seed -> chain_apk ~seed);
          ] );
      ( "config-codec",
        [
          QCheck_alcotest.to_alcotest prop_config_codec_roundtrip;
          Alcotest.test_case "decode rejects bad options" `Quick
            test_config_decode_errors;
        ] );
    ]
