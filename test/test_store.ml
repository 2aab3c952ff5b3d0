(* Persistent summary store (DESIGN.md §13):

   - flag off ⇒ no store metrics registered, identical findings
     (export byte-identity);
   - canonical payload encodings are identical across independent
     intern pools (two fresh loads of the same app, qcheck over
     generated apps);
   - decode ∘ encode round-trips every stored fact and report;
   - hot-vs-cold verdict equality over DroidBench and a generated
     corpus slice (the correctness gate of the perf optimisation);
   - corrupt / truncated / alien entries degrade to misses with
     diagnostics, never to crashes or wrong verdicts;
   - an unwritable store directory degrades to read-only;
   - the config digest changes with exactly the keyed Config.t fields;
   - concurrent writers under [Pool.map] leave only valid entries. *)

module Json = Fd_obs.Json
module Metrics = Fd_obs.Metrics
module Config = Fd_core.Config
module Summary = Fd_core.Summary
module Taint = Fd_core.Taint
module Store = Fd_store.Store
module Gen = Fd_appgen.Generator
module Suite = Fd_droidbench.Suite

(* ------------------------------------------------------------------ *)
(* helpers                                                             *)
(* ------------------------------------------------------------------ *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let analyze ?dir apk =
  let config = { Config.default with Config.summary_store = dir } in
  Fd_core.Infoflow.analyze_apk ~config apk

(* order-insensitive finding key: source tag, sink statement, sink tag *)
let keys_of (r : Fd_core.Infoflow.result) =
  List.map
    (fun (f : Fd_core.Bidi.finding) ->
      ( f.Fd_core.Bidi.f_source.Taint.si_tag,
        Fd_callgraph.Icfg.string_of_node f.Fd_core.Bidi.f_sink_node,
        f.Fd_core.Bidi.f_sink_tag ))
    r.Fd_core.Infoflow.r_findings
  |> List.sort_uniq compare

let gen_apk ~profile ~seed index =
  (Gen.generate ~profile ~seed index).Gen.ga_apk

(* a capture backend: records every persisted payload, always misses
   on load — the analysis runs cold against an in-memory "store" *)
let with_capture f =
  let saved = !Summary.provider in
  let captured = ref [] in
  let backend =
    {
      Summary.be_load = (fun ~method_digest:_ -> None);
      be_store =
        (fun ~method_digest ~payload ->
          captured := (method_digest, Json.to_string payload) :: !captured);
      be_diag = (fun _ -> ());
    }
  in
  Summary.provider := (fun ~dir:_ ~config_digest:_ -> Some backend);
  Fun.protect
    ~finally:(fun () -> Summary.provider := saved)
    (fun () -> f captured)

let captured_payloads apk =
  with_capture (fun captured ->
      ignore (analyze ~dir:"capture" apk);
      List.sort compare !captured)

(* ------------------------------------------------------------------ *)
(* flag off ⇒ byte-identical observable state                          *)
(* ------------------------------------------------------------------ *)

(* runs first: the store metrics are registered lazily by the first
   store-enabled run, so a store-less run must leave no [store.*]
   trace in the metrics export at all *)
let test_flag_off_identity () =
  let apk = gen_apk ~profile:Gen.Malware ~seed:7 1 in
  let baseline = keys_of (analyze apk) in
  Fd_store.Store.install ();
  Metrics.reset ();
  let again = keys_of (analyze apk) in
  Alcotest.(check bool) "findings unchanged" true (baseline = again);
  let sn = Metrics.snapshot () in
  let store_metrics =
    List.filter
      (fun (name, _) ->
        String.length name >= 6 && String.sub name 0 6 = "store.")
      sn.Metrics.sn_counters
  in
  Alcotest.(check (list (pair string int)))
    "no store.* counters registered" [] store_metrics

(* ------------------------------------------------------------------ *)
(* stable keys across independent intern pools                         *)
(* ------------------------------------------------------------------ *)

(* Two separate [analyze_apk] calls load the app twice: fresh scene,
   fresh locals, fresh solver intern tables.  Analysing an unrelated
   app in between shifts any global interning state.  The canonical
   payloads must come out identical — that is exactly the property
   that lets one process decode another's summaries. *)
let prop_stable_encoding =
  QCheck.Test.make ~name:"payload encoding survives an intern-pool change"
    ~count:6
    QCheck.(int_range 0 1000)
    (fun seed ->
      let apk = gen_apk ~profile:Gen.Malware ~seed 2 in
      let first = captured_payloads apk in
      ignore (analyze (gen_apk ~profile:Gen.Play ~seed:(seed + 1) 3));
      let second = captured_payloads apk in
      first <> [] && first = second)

(* ------------------------------------------------------------------ *)
(* decode/encode round-trip                                            *)
(* ------------------------------------------------------------------ *)

(* a sentinel entry source that cannot collide with any real source:
   generated apps never carry this ground-truth tag *)
let sentinel_source (r : Fd_core.Infoflow.result) =
  match r.Fd_core.Infoflow.r_findings with
  | f :: _ ->
      Some
        {
          f.Fd_core.Bidi.f_source with
          Taint.si_tag = Some "store-test-sentinel";
          Taint.si_desc = "store-test sentinel entry source";
        }
  | [] -> None

let test_roundtrip () =
  let apk = gen_apk ~profile:Gen.Malware ~seed:11 1 in
  let r = analyze apk in
  let entry_source = sentinel_source r in
  Alcotest.(check bool) "app has a finding" true (entry_source <> None);
  let payloads = captured_payloads apk in
  Alcotest.(check bool) "payloads captured" true (payloads <> []);
  let facts = ref 0 and reports = ref 0 in
  List.iter
    (fun (_digest, s) ->
      let payload = Json.parse_string s in
      match Json.member "cxs" payload with
      | Some (Json.Obj cxs) ->
          List.iter
            (fun (_entry_key, cx) ->
              (match Json.member "s" cx with
              | Some (Json.List sums) ->
                  List.iter
                    (function
                      | Json.List [ _idx; fj ] ->
                          incr facts;
                          let f = Summary.dec_fact ~entry_source fj in
                          if
                            not
                              (Json.equal (Summary.enc_fact ~entry_source f) fj)
                          then Alcotest.fail ("fact round-trip: " ^ Json.to_string fj)
                      | _ -> Alcotest.fail "malformed summary element")
                    sums
              | _ -> Alcotest.fail "context without summaries");
              match Json.member "r" cx with
              | Some (Json.List _) -> incr reports
              | _ -> Alcotest.fail "context without report list")
            cxs
      | _ -> Alcotest.fail "payload without cxs")
    payloads;
  Alcotest.(check bool) "facts round-tripped" true (!facts > 0)

(* ------------------------------------------------------------------ *)
(* hot vs cold verdict equality                                        *)
(* ------------------------------------------------------------------ *)

let hot_cold_equal name apks =
  let dir = temp_dir "fdstore-hotcold" in
  Fd_store.Store.install ();
  List.iter
    (fun apk ->
      let off = keys_of (analyze apk) in
      let cold = keys_of (analyze ~dir apk) in
      let hot = keys_of (analyze ~dir apk) in
      Alcotest.(check bool)
        (name ^ ": cold run = store off") true (off = cold);
      Alcotest.(check bool) (name ^ ": hot run = store off") true (off = hot))
    apks;
  Alcotest.(check bool)
    (name ^ ": store populated") true
    (Store.scan dir <> [])

let test_hot_cold_droidbench () =
  hot_cold_equal "droidbench"
    (List.map (fun a -> a.Fd_droidbench.Bench_app.app_apk) Suite.all)

let test_hot_cold_corpus () =
  hot_cold_equal "corpus"
    (List.map
       (fun ga -> ga.Gen.ga_apk)
       (Gen.corpus ~profile:Gen.Malware ~seed:20140609 8))

(* ------------------------------------------------------------------ *)
(* entries written without the dead-local rule                         *)
(* ------------------------------------------------------------------ *)

(* a store written by the unpruned solver ([Bidi.fresh ~prune_dead:false])
   holds end summaries on dead locals too: a superset, whose extra
   facts map into no caller.  The pruned solver reads it with the same
   verdicts as with the store off, and the same findings and sink
   reports, byte for byte, as from a store it wrote itself; the
   unpruned entries take more bytes. *)
(* a report's XML up to its performance data (run time and counts) *)
let results_xml r =
  let x = Fd_core.Report.to_xml_string r in
  let rec cut i =
    if i + 17 > String.length x then x
    else if String.sub x i 17 = "<PerformanceData>" then String.sub x 0 i
    else cut (i + 1)
  in
  cut 0

let test_unpruned_entries_readable () =
  Fd_store.Store.install ();
  let old_dir = temp_dir "fdstore-unpruned"
  and new_dir = temp_dir "fdstore-pruned" in
  let hits () = Metrics.counter_value "store.hits" in
  let bytes dir =
    List.fold_left (fun acc e -> acc + e.Store.ei_bytes) 0 (Store.scan dir)
  in
  let apks =
    List.map
      (fun a -> a.Fd_droidbench.Bench_app.app_apk)
      (List.filteri (fun i _ -> i mod 5 = 0) Suite.all)
    @ List.init 4 (fun i -> gen_apk ~profile:Gen.Malware ~seed:29 i)
  in
  let old_hits = ref 0 in
  List.iter
    (fun apk ->
      let off = analyze apk in
      let hooks =
        Summary.make_hooks ~icfg:off.Fd_core.Infoflow.r_icfg
          ~config:{ Config.default with Config.summary_store = Some old_dir }
          ~sources:(Fd_frontend.Sourcesink.default ())
          ~wrappers:(Fd_frontend.Rules.default_wrappers ())
          ~natives:(Fd_frontend.Rules.default_natives ())
      in
      let writer =
        Fd_core.Bidi.fresh ?store:hooks ~prune_dead:false
          off.Fd_core.Infoflow.r_engine
      in
      Fd_core.Bidi.run writer ~entries:off.Fd_core.Infoflow.r_entries;
      ignore (analyze ~dir:new_dir apk);
      let hot_new = analyze ~dir:new_dir apk in
      let h = hits () in
      let hot_old = analyze ~dir:old_dir apk in
      old_hits := !old_hits + (hits () - h);
      Alcotest.(check bool) "verdicts as with the store off" true
        (keys_of off = keys_of hot_old);
      Alcotest.(check string) "findings and sink reports"
        (results_xml hot_new) (results_xml hot_old))
    apks;
  Alcotest.(check bool) "the pruned solver read unpruned entries" true
    (!old_hits > 0);
  Alcotest.(check bool) "unpruned entries are larger" true
    (bytes old_dir > bytes new_dir)

(* ------------------------------------------------------------------ *)
(* active facts written with their activation statement                *)
(* ------------------------------------------------------------------ *)

(* entries written while an activated taint still named the heap write
   that activated it hold active facts with an ["an"] node.  They
   decode to the plain active fact the solver now derives, and encode
   back without it; an inactive fact keeps its activation *)
let test_active_activation_dropped () =
  let node i =
    Fd_callgraph.Icfg.
      {
        n_method =
          Fd_callgraph.Mkey.{ mk_class = "t.C"; mk_name = "m"; mk_arity = 1 };
        n_idx = i;
      }
  in
  let source =
    Taint.
      {
        si_category = Fd_frontend.Sourcesink.Imei;
        si_node = node 0;
        si_tag = Some "src";
        si_desc = "getDeviceId";
      }
  in
  let ap =
    Fd_core.Access_path.of_static
      (Fd_ir.Types.mk_field
         ~ty:(Fd_ir.Types.typ_of_string "java.lang.String")
         "t.C" "f")
  in
  let plain = Taint.make ~ap ~source ~at:(node 0) () in
  let with_an = { plain with Taint.activation = Some (node 3); t_memo = 0 } in
  let enc f = Summary.enc_fact ~entry_source:None f in
  let stale = enc (Taint.T with_an) in
  Alcotest.(check bool) "the stale encoding names the write" true
    (Json.member "an" stale <> None);
  let decoded = Summary.dec_fact ~entry_source:None stale in
  Alcotest.(check bool) "decodes to the plain active fact" true
    (Taint.equal decoded (Taint.T plain));
  Alcotest.(check string) "encodes back without the write"
    (Json.to_string (enc (Taint.T plain)))
    (Json.to_string (enc decoded));
  let inactive =
    Taint.inactive_alias plain ~ap ~activation:(node 3) ~at:(node 3)
  in
  Alcotest.(check bool) "an inactive fact keeps its activation" true
    (Taint.equal
       (Summary.dec_fact ~entry_source:None (enc (Taint.T inactive)))
       (Taint.T inactive))

(* ------------------------------------------------------------------ *)
(* corruption handling                                                 *)
(* ------------------------------------------------------------------ *)

let test_corruption () =
  let dir = temp_dir "fdstore-corrupt" in
  Fd_store.Store.install ();
  let apk = gen_apk ~profile:Gen.Malware ~seed:5 1 in
  let baseline = keys_of (analyze apk) in
  ignore (analyze ~dir apk);
  ignore (Store.drain_diags ());
  let entries = Store.scan dir in
  Alcotest.(check bool) "entries written" true (List.length entries >= 2);
  (* damage every entry a different way *)
  let overwrite path bytes =
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc
  in
  List.iteri
    (fun i (e : Store.entry_info) ->
      match i mod 3 with
      | 0 -> overwrite e.Store.ei_path "FDS" (* truncated mid-header *)
      | 1 -> overwrite e.Store.ei_path "garbage\nnot json" (* alien *)
      | _ ->
          (* valid framing, corrupted payload: checksum must catch it *)
          let ic = open_in_bin e.Store.ei_path in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let b = Bytes.of_string s in
          let last = Bytes.length b - 1 in
          Bytes.set b last (if Bytes.get b last = '}' then ']' else '}');
          overwrite e.Store.ei_path (Bytes.to_string b))
    entries;
  List.iter
    (fun e ->
      match Store.verify_entry e with
      | Ok () -> Alcotest.fail ("verify missed damage in " ^ e.Store.ei_path)
      | Error _ -> ())
    entries;
  let hot = keys_of (analyze ~dir apk) in
  Alcotest.(check bool) "verdicts survive corruption" true (baseline = hot);
  Alcotest.(check bool)
    "damage surfaced as diagnostics" true
    (Store.drain_diags () <> [])

let test_read_only_degradation () =
  let dir = temp_dir "fdstore-ro" in
  Fd_store.Store.install ();
  let apk = gen_apk ~profile:Gen.Malware ~seed:6 1 in
  let baseline = keys_of (analyze apk) in
  (* a regular file squatting on the format directory defeats mkdir
     even for root (chmod-based unwritability would not) *)
  let format_dir =
    Printf.sprintf "format-v%d" Summary.format_version
  in
  let oc = open_out (Filename.concat dir format_dir) in
  output_string oc "not a directory";
  close_out oc;
  ignore (Store.drain_diags ());
  let r = keys_of (analyze ~dir apk) in
  Alcotest.(check bool) "verdicts unchanged" true (baseline = r);
  Alcotest.(check bool)
    "unwritable dir warned" true
    (Store.drain_diags () <> [])

(* ------------------------------------------------------------------ *)
(* gc determinism                                                      *)
(* ------------------------------------------------------------------ *)

(* with every mtime tied, eviction order is decided purely by the
   (mtime, path) sort — the survivor set must match a replay of that
   policy, independent of readdir order *)
let test_gc_deterministic () =
  let dir = temp_dir "fdstore-gc" in
  Fd_store.Store.install ();
  List.iter
    (fun ga -> ignore (analyze ~dir ga.Gen.ga_apk))
    (Gen.corpus ~profile:Gen.Malware ~seed:777 4);
  let entries = Store.scan dir in
  Alcotest.(check bool) "enough entries to evict" true
    (List.length entries >= 4);
  (* force ties: identical mtimes everywhere *)
  let t = Unix.time () -. 1000. in
  List.iter (fun e -> Unix.utimes e.Store.ei_path t t) entries;
  let entries = Store.scan dir in
  let total = List.fold_left (fun a e -> a + e.Store.ei_bytes) 0 entries in
  let max_bytes = total / 2 in
  (* replay the documented policy: sort by (mtime, path), evict from
     the front until the excess is gone *)
  let expected_survivors =
    let by_age =
      List.sort
        (fun a b ->
          compare
            (a.Store.ei_mtime, a.Store.ei_path)
            (b.Store.ei_mtime, b.Store.ei_path))
        entries
    in
    let excess = ref (total - max_bytes) in
    List.filter
      (fun e ->
        if !excess > 0 then begin
          excess := !excess - e.Store.ei_bytes;
          false
        end
        else true)
      by_age
    |> List.map (fun e -> e.Store.ei_path)
    |> List.sort compare
  in
  let deleted, freed = Store.gc dir ~max_bytes in
  Alcotest.(check bool) "something evicted" true (deleted > 0 && freed > 0);
  let survivors =
    Store.scan dir |> List.map (fun e -> e.Store.ei_path) |> List.sort compare
  in
  Alcotest.(check (list string)) "survivors match (mtime, path) policy"
    expected_survivors survivors;
  (* idempotent second pass: already under budget *)
  Alcotest.(check (pair int int)) "second gc is a no-op" (0, 0)
    (Store.gc dir ~max_bytes:total)

(* ------------------------------------------------------------------ *)
(* concurrent writers                                                  *)
(* ------------------------------------------------------------------ *)

let test_concurrent_writers () =
  let dir = temp_dir "fdstore-conc" in
  Fd_store.Store.install ();
  let apks =
    List.map
      (fun ga -> ga.Gen.ga_apk)
      (Gen.corpus ~profile:Gen.Malware ~seed:424242 8)
  in
  let sequential = List.map (fun apk -> keys_of (analyze apk)) apks in
  let parallel =
    Fd_util.Pool.map ~jobs:4
      (fun apk -> keys_of (analyze ~dir apk))
      apks
  in
  Alcotest.(check bool)
    "parallel cold = sequential store-off" true (sequential = parallel);
  let entries = Store.scan dir in
  Alcotest.(check bool) "entries written" true (entries <> []);
  List.iter
    (fun e ->
      match Store.verify_entry e with
      | Ok () -> ()
      | Error reason ->
          Alcotest.fail
            (Printf.sprintf "invalid entry after racing writers: %s: %s"
               e.Store.ei_path reason))
    entries;
  let hot =
    Fd_util.Pool.map ~jobs:4
      (fun apk -> keys_of (analyze ~dir apk))
      apks
  in
  Alcotest.(check bool) "parallel hot = sequential store-off" true
    (sequential = hot)

(* ------------------------------------------------------------------ *)
(* config digest: one row per Config.t field                           *)
(* ------------------------------------------------------------------ *)

(* every field of [Config.t], flipped away from the default, with
   whether the store's config digest must change.  The record literal
   in [config_digest] has no wildcard, so a new field cannot compile
   there; this table makes its keyed-or-excluded decision tested. *)
let digest_rows =
  let d = Config.default in
  [
    ("max_access_path", { d with Config.max_access_path = 3 }, true);
    ("lifecycle", { d with Config.lifecycle = false }, false);
    ("callbacks", { d with Config.callbacks = false }, false);
    ( "per_component_callbacks",
      { d with Config.per_component_callbacks = false },
      false );
    ("context_injection", { d with Config.context_injection = false }, true);
    ( "activation_statements",
      { d with Config.activation_statements = false },
      true );
    ("alias_search", { d with Config.alias_search = false }, true);
    ( "cg_algorithm",
      { d with Config.cg_algorithm = Fd_callgraph.Callgraph.Rta },
      true );
    ("max_propagations", { d with Config.max_propagations = 7 }, false);
    ("deadline_s", { d with Config.deadline_s = Some 1. }, false);
    ("precision", { d with Config.precision = Config.all_precision }, true);
    ("provenance", { d with Config.provenance = true }, false);
    ("profile", { d with Config.profile = true }, false);
    ("summary_store", { d with Config.summary_store = Some "dir" }, false);
    ( "targeted",
      { d with Config.targeted = [ "SmsManager.sendTextMessage" ] },
      true );
    ("icc", { d with Config.icc = true }, true);
  ]

let test_config_digest_fields () =
  let sources = Fd_frontend.Sourcesink.default () in
  let wrappers = Fd_frontend.Rules.default_wrappers () in
  let natives = Fd_frontend.Rules.default_natives () in
  let digest config =
    Summary.config_digest ~config ~sources ~wrappers ~natives
  in
  let base = digest Config.default in
  List.iter
    (fun (field, config, keyed) ->
      Alcotest.(check bool) field keyed (digest config <> base))
    digest_rows;
  let targeted ts = digest { Config.default with Config.targeted = ts } in
  Alcotest.(check bool) "different sink sets differ" true
    (targeted [ "SmsManager.sendTextMessage" ] <> targeted [ "Log.i" ]);
  Alcotest.(check string) "sink-set order is canonicalised"
    (targeted [ "SmsManager.sendTextMessage"; "Log.i" ])
    (targeted [ "Log.i"; "SmsManager.sendTextMessage" ])

(* the digest's exact hex under the default rule sets, for the default
   config, every row above and three multi-valued cases: however the
   digest is built, no existing store namespace may move *)
let pinned_digests =
  let d = Config.default in
  ( ("default", d, "9c31a1f93fec6c3d0f27f2f81aae2e6a")
  :: List.map2
       (fun (field, config, _) hex -> (field, config, hex))
       digest_rows
       [
         "0355fda79438b35c92c9424233efc99a";
         "9c31a1f93fec6c3d0f27f2f81aae2e6a";
         "9c31a1f93fec6c3d0f27f2f81aae2e6a";
         "9c31a1f93fec6c3d0f27f2f81aae2e6a";
         "e4e24c29258aff8486939bbfcd53bb31";
         "517a071f79dd1acb35af364275a032c9";
         "3e983c2d57223158b0fb37f3de257dd9";
         "0a4d9a7d1d6f0d77afb314cec29b5210";
         "9c31a1f93fec6c3d0f27f2f81aae2e6a";
         "9c31a1f93fec6c3d0f27f2f81aae2e6a";
         "c49132bcc8fe65de4f3a711a5d27e303";
         "9c31a1f93fec6c3d0f27f2f81aae2e6a";
         "9c31a1f93fec6c3d0f27f2f81aae2e6a";
         "9c31a1f93fec6c3d0f27f2f81aae2e6a";
         "e8d4928d5d2717e0cad0279f78b7cf2b";
         "9aa91edebad7705892c73348af28bc86";
       ] )
  @ [
      ( "precision subset",
        { d with
          Config.precision =
            { Config.no_precision with must_alias = true; clinit = true };
        },
        "cb8de70d193fc2306202291fa6fa40c0" );
      ( "targeted set, unsorted with a duplicate",
        { d with Config.targeted = [ "SmsManager"; "Log.i"; "SmsManager" ] },
        "84b4dcd3b3409b3e665ed68bf91bcb28" );
      ( "every keyed field off the default",
        { d with
          Config.max_access_path = 2;
          precision = Config.all_precision;
          cg_algorithm = Fd_callgraph.Callgraph.Rta;
          activation_statements = false;
          context_injection = false;
          alias_search = false;
          targeted = [ "Log.i" ];
          icc = true;
        },
        "aba46457cb6714509ced82c1e6bcb9da" );
    ]

let test_config_digest_pinned () =
  let sources = Fd_frontend.Sourcesink.default () in
  let wrappers = Fd_frontend.Rules.default_wrappers () in
  let natives = Fd_frontend.Rules.default_natives () in
  List.iter
    (fun (label, config, hex) ->
      Alcotest.(check string) label hex
        (Summary.config_digest ~config ~sources ~wrappers ~natives))
    pinned_digests

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fd_store"
    [
      ( "store",
        [
          Alcotest.test_case "flag off: identical, no store metrics" `Quick
            test_flag_off_identity;
          QCheck_alcotest.to_alcotest prop_stable_encoding;
          Alcotest.test_case "payload decode/encode round-trip" `Quick
            test_roundtrip;
          Alcotest.test_case "hot vs cold: droidbench" `Slow
            test_hot_cold_droidbench;
          Alcotest.test_case "hot vs cold: corpus slice" `Slow
            test_hot_cold_corpus;
          Alcotest.test_case "entries written unpruned stay readable" `Quick
            test_unpruned_entries_readable;
          Alcotest.test_case "active facts decode without activation" `Quick
            test_active_activation_dropped;
          Alcotest.test_case "corruption degrades to misses" `Quick
            test_corruption;
          Alcotest.test_case "unwritable dir degrades to read-only" `Quick
            test_read_only_degradation;
          Alcotest.test_case "gc evicts in (mtime, path) order" `Quick
            test_gc_deterministic;
          Alcotest.test_case "concurrent writers under Pool.map" `Slow
            test_concurrent_writers;
          Alcotest.test_case "config digest keys every non-excluded field"
            `Quick test_config_digest_fields;
          Alcotest.test_case "config digest hex pinned" `Quick
            test_config_digest_pinned;
        ] );
    ]
