(** The differential soundness harness: cross-check the static IFDS
    engines against the dynamic oracle on generated apps.

    The paper's central claim is precision {e and} recall (Table 1),
    but an optimised solver silently computing different flows than
    the semantics is exactly the failure mode real taint tools exhibit
    (Pauck et al., "Do Android Taint Analysis Tools Keep Their
    Promises?").  This module wires the three ingredients the
    repository already owns — the seeded generator with planted ground
    truth, the thorough-coverage dynamic interpreter (which never
    reports a false positive), and the static pipeline — into a
    correctness gate: every leak of every generated app is classified
    into a {!Verdict.bucket}, campaigns fan out over {!Fd_util.Pool}
    with bit-identical verdict digests at any job count, and any
    [DIVERGENCE] fails the gate (and can be shrunk with
    {!Minimize}). *)

open Fd_core
module Gen = Fd_appgen.Generator
module M = Fd_obs.Metrics

let m_apps = M.counter "diffcheck.apps"
let m_divergent = M.counter "diffcheck.divergent_apps"

(* ------------------------------------------------------------------ *)
(* the three views of one app                                          *)
(* ------------------------------------------------------------------ *)

(** [static_findings ?config apks] — the bidi engine's findings over
    the app set's merged Scene as deduplicated (source tag, sink tag)
    keys, plus the typed solver outcome. *)
let static_findings ?(config = Config.default) apks :
    Verdict.key list * Fd_resilience.Outcome.t =
  let r = Infoflow.analyze_merged ~config (Fd_frontend.Apk.load_merged apks) in
  ( List.sort_uniq compare
      (List.map
         (fun (fd : Bidi.finding) ->
           (fd.Bidi.f_source.Taint.si_tag, fd.Bidi.f_sink_tag))
         r.Infoflow.r_findings),
    r.Infoflow.r_stats.Infoflow.st_outcome )

(** [dynamic_findings ?coverage ?icc apks] — the interpreter's
    observed leaks over the app set as deduplicated keys.  [icc] turns
    on concrete intent dispatch, mirroring the static tier so the
    differential fence stays aligned.  An unloadable app set observes
    nothing.  It loads its own copy of the apps: the static run adds
    its dummy main to the Scene it analyses. *)
let dynamic_findings ?(coverage = Fd_interp.Droid_runner.Thorough)
    ?(icc = false) apks : Verdict.key list =
  match Fd_frontend.Apk.load_merged apks with
  | exception Fd_frontend.Apk.Load_error _ -> []
  | m ->
      Fd_interp.Droid_runner.findings
        (Fd_interp.Droid_runner.run ~coverage ~icc m)

(* ------------------------------------------------------------------ *)
(* per-app check                                                       *)
(* ------------------------------------------------------------------ *)

type app_report = {
  ar_name : string;
  ar_verdicts : Verdict.leak_verdict list;
  ar_outcome : Fd_resilience.Outcome.t;  (** static solver outcome *)
  ar_time : float;  (** wall-clock seconds for both runs (not digested) *)
}

let divergences ar =
  List.filter (fun v -> Verdict.is_divergence v.Verdict.v_bucket) ar.ar_verdicts

(** [fixed_of_config config] — the limitation categories whose
    precision pass is enabled: those keys must no longer be classified
    as explained by the limitation (they are held to the pass's
    promise instead). *)
let fixed_of_config (config : Config.t) : Gen.limitation list =
  let p = config.Config.precision in
  List.filter_map
    (fun (on, l) -> if on then Some l else None)
    [
      (p.Config.must_alias, Gen.Lim_strong_update);
      (p.Config.array_index, Gen.Lim_array_index);
      (p.Config.reflection, Gen.Lim_reflection);
      (p.Config.clinit, Gen.Lim_clinit);
      (* the ICC tier drops deliverable sends (FP side) and stitches
         the end-to-end flows (FN side); the reception-source finding
         inside a receiver stays static-only in both tiers, so
         [Lim_icc_rx] is never fixed *)
      (config.Config.icc, Gen.Lim_icc_send);
      (config.Config.icc, Gen.Lim_icc_stitch);
    ]

(* both engines over one app set, every leak key classified against
   the set's ground truth; a crashing static run yields zero static
   findings (classified accordingly) rather than aborting the
   campaign *)
let check_apps ?(config = Config.default) ?coverage ~name ~expected ~limits
    apks : app_report =
  let t0 = Unix.gettimeofday () in
  let static, outcome =
    match static_findings ~config apks with
    | r -> r
    | exception e ->
        ([], Fd_resilience.Outcome.Crashed (Printexc.to_string e))
  in
  let dynamic = dynamic_findings ?coverage ~icc:config.Config.icc apks in
  let verdicts =
    Verdict.classify ~fixed:(fixed_of_config config) ~static ~dynamic ~expected
      ~limits
  in
  let t1 = Unix.gettimeofday () in
  M.incr m_apps;
  let ar =
    { ar_name = name; ar_verdicts = verdicts; ar_outcome = outcome;
      ar_time = t1 -. t0 }
  in
  if divergences ar <> [] then M.incr m_divergent;
  ar

(** [check_apk ?config ?coverage ~name ~expected ~limits apk] runs
    both engines on one app and classifies every leak key. *)
let check_apk ?config ?coverage ~name ~expected ~limits apk =
  check_apps ?config ?coverage ~name ~expected ~limits [ apk ]

(** [check_gen ?config ?coverage ga] — {!check_apk} on a generated
    app, using its planted ground truth and limitation table. *)
let check_gen ?config ?coverage (ga : Gen.gen_app) : app_report =
  check_apk ?config ?coverage ~name:ga.Gen.ga_name
    ~expected:ga.Gen.ga_expected ~limits:ga.Gen.ga_limits ga.Gen.ga_apk

(** [check_pair ?config ?coverage gp] — the inter-app differential
    check: both engines run over the {e merged} two-app Scene, and the
    pair's collusion ground truth (meaningful only merged) classifies
    the keys.  With the ICC tier off, the collusion flow shows up as
    an explained FN; with it on, as a confirmed stitched leak. *)
let check_pair ?config ?coverage (gp : Gen.gen_pair) : app_report =
  check_apps ?config ?coverage ~name:gp.Gen.gp_name
    ~expected:gp.Gen.gp_expected ~limits:gp.Gen.gp_limits
    [ gp.Gen.gp_sender.Gen.ga_apk; gp.Gen.gp_receiver.Gen.ga_apk ]

(* ------------------------------------------------------------------ *)
(* witness validation                                                  *)
(* ------------------------------------------------------------------ *)

(** [witness_adjacent icfg a b] — whether nodes [a] and [b] can be one
    solver step apart.  Deliberately generous: besides intra-procedural
    succ/pred edges it accepts call descents (into callee entry {e or}
    exit — the backward alias solver enters at exits), return ascents
    to any successor of the method's call sites, descents launched from
    a predecessor of the recorded node, and first-use [<clinit>]
    relays.  A witness that fails even this relation skipped across the
    ICFG and is definitely broken. *)
let witness_adjacent (icfg : Fd_callgraph.Icfg.t) a b =
  let module I = Fd_callgraph.Icfg in
  let mem n ns = List.exists (I.equal_node n) ns in
  let callee_entry_exits n =
    List.concat_map
      (fun m ->
        match I.start_node icfg m :: I.exit_nodes icfg m with
        | ns -> ns
        | exception Not_found -> [])
      (I.callees icfg n @ I.clinit_callees icfg n @ I.refl_callees icfg n)
  in
  let one_way a b =
    I.equal_node a b
    || mem b (I.succs icfg a)
    || mem b (I.preds icfg a)
    || mem b (callee_entry_exits a)
    || List.exists (fun p -> mem b (callee_entry_exits p)) (I.preds icfg a)
    || (let callers = I.callers icfg a.I.n_method in
        mem b callers
        || List.exists (fun c -> mem b (I.succs icfg c)) callers)
    || mem a (I.clinit_sites icfg b.I.n_method)
    || mem b (I.clinit_sites icfg a.I.n_method)
  in
  (* backward-analysis steps run the same edges in reverse *)
  one_way a b || one_way b a

type witness_report = {
  wr_findings : int;  (** findings the provenance-on run reported *)
  wr_witnessed : int;  (** findings that carried a witness *)
  wr_dynamic_agree : int;
      (** witnessed findings whose (source tag, sink tag) the dynamic
          interpreter also observed leaking — static-only witnesses are
          expected wherever the static engine over-approximates, so
          this is reported, not treated as an error *)
  wr_errors : string list;
      (** endpoint or adjacency violations; empty = every witness is
          structurally valid *)
}

(** [check_witnesses ?config ?coverage ~name apk] re-analyses the app
    with provenance recording forced on and validates every reported
    finding's witness: it must exist, start at the finding's source
    statement, end at its sink statement, and take only ICFG-adjacent
    steps ({!witness_adjacent}).  Agreement with the dynamic
    interpreter's observed leaks is counted separately. *)
let check_witnesses ?(config = Config.default) ?coverage ~name apk :
    witness_report =
  let config = { config with Config.provenance = true } in
  let r = Infoflow.analyze_apk ~config apk in
  let icfg = r.Infoflow.r_icfg in
  let dynamic = dynamic_findings ?coverage ~icc:config.Config.icc [ apk ] in
  let errors = ref [] in
  let witnessed = ref 0 in
  let agree = ref 0 in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun (fd : Bidi.finding) ->
      let where =
        Printf.sprintf "%s: %s -> %s" name
          (Fd_callgraph.Icfg.string_of_node fd.Bidi.f_source.Taint.si_node)
          (Fd_callgraph.Icfg.string_of_node fd.Bidi.f_sink_node)
      in
      match fd.Bidi.f_witness with
      | [] -> err "%s: no witness recorded" where
      | steps ->
          incr witnessed;
          let first = List.hd steps in
          let last = List.nth steps (List.length steps - 1) in
          if
            not
              (Fd_callgraph.Icfg.equal_node first.Bidi.ws_node
                 fd.Bidi.f_source.Taint.si_node)
          then
            err "%s: witness starts at %s, not at the source" where
              (Fd_callgraph.Icfg.string_of_node first.Bidi.ws_node);
          if
            not
              (Fd_callgraph.Icfg.equal_node last.Bidi.ws_node
                 fd.Bidi.f_sink_node)
          then
            err "%s: witness ends at %s, not at the sink" where
              (Fd_callgraph.Icfg.string_of_node last.Bidi.ws_node);
          let rec walk = function
            | (a : Bidi.witness_step) :: (b :: _ as rest) ->
                (* an "icc"-kind step is a framework hand-off (intent
                   delivery): the stitch boundary is not an ICFG edge *)
                if
                  b.Bidi.ws_kind <> "icc"
                  && not (witness_adjacent icfg a.Bidi.ws_node b.Bidi.ws_node)
                then
                  err "%s: non-adjacent witness step %s -> %s" where
                    (Fd_callgraph.Icfg.string_of_node a.Bidi.ws_node)
                    (Fd_callgraph.Icfg.string_of_node b.Bidi.ws_node);
                walk rest
            | _ -> ()
          in
          walk steps;
          if List.mem (fd.Bidi.f_source.Taint.si_tag, fd.Bidi.f_sink_tag) dynamic
          then incr agree)
    r.Infoflow.r_findings;
  {
    wr_findings = List.length r.Infoflow.r_findings;
    wr_witnessed = !witnessed;
    wr_dynamic_agree = !agree;
    wr_errors = List.rev !errors;
  }

(* ------------------------------------------------------------------ *)
(* campaigns                                                           *)
(* ------------------------------------------------------------------ *)

type campaign = {
  cp_profile : Gen.profile;
  cp_seed : int;
  cp_reports : app_report list;  (** in generation order *)
}

(** [campaign ?config ?jobs ~profile ~seed ~n ()] generates and
    cross-checks [n] apps.  [jobs] fans the per-app loop out over
    {!Fd_util.Pool.map}; reports keep generation order, so the
    campaign (and its {!digest}) is bit-identical at any job count. *)
let campaign ?config ?jobs ?coverage ~profile ~seed ~n () : campaign =
  let apps = Gen.corpus ~profile ~seed n in
  {
    cp_profile = profile;
    cp_seed = seed;
    cp_reports = Fd_util.Pool.map ?jobs (check_gen ?config ?coverage) apps;
  }

(** [pair_campaign ?config ?jobs ~seed ~n ()] — the collusion fleet:
    [n] deterministic two-app pairs, each cross-checked over its
    merged Scene.  Same determinism contract as {!campaign}. *)
let pair_campaign ?config ?jobs ?coverage ~seed ~n () : campaign =
  let pairs = Gen.collusion_pairs ~seed n in
  {
    cp_profile = Gen.Icc;
    cp_seed = seed;
    cp_reports = Fd_util.Pool.map ?jobs (check_pair ?config ?coverage) pairs;
  }

(** [verdict_lines c] — the canonical textual form of every verdict,
    one line per (app, key): what the digest hashes and what minimized
    reproducer logs quote. *)
let verdict_lines c =
  List.concat_map
    (fun ar ->
      List.map
        (fun (v : Verdict.leak_verdict) ->
          Printf.sprintf "%s|%s|%s" ar.ar_name
            (Verdict.string_of_key v.Verdict.v_key)
            (Verdict.string_of_bucket v.Verdict.v_bucket))
        ar.ar_verdicts)
    c.cp_reports

(** [digest c] — hex digest of the canonical verdict lines; the
    any-job-count determinism contract of the CI gate. *)
let digest c = Digest.to_hex (Digest.string (String.concat "\n" (verdict_lines c)))

let divergent_reports c =
  List.filter (fun ar -> divergences ar <> []) c.cp_reports

(** [bucket_counts c] — (bucket label, count), sorted by label. *)
let bucket_counts c =
  List.fold_left
    (fun acc ar ->
      List.fold_left
        (fun acc (v : Verdict.leak_verdict) ->
          let k = Verdict.string_of_bucket v.Verdict.v_bucket in
          let prev = Option.value (List.assoc_opt k acc) ~default:0 in
          (k, prev + 1) :: List.remove_assoc k acc)
        acc ar.ar_verdicts)
    [] c.cp_reports
  |> List.sort compare

let total_keys c =
  List.fold_left (fun a ar -> a + List.length ar.ar_verdicts) 0 c.cp_reports

(** [render c] — the campaign summary table plus one line per
    divergence. *)
let render c =
  let module Table = Fd_util.Table in
  let summary =
    Table.render
      (Table.make
         ~header:
           [
             Printf.sprintf "diffcheck: %s (seed %d, %d apps)"
               (Gen.string_of_profile c.cp_profile)
               c.cp_seed
               (List.length c.cp_reports);
             "leak keys";
           ]
         (List.map
            (fun (k, n) -> Table.Row [ k; string_of_int n ])
            (bucket_counts c)
         @ [
             Table.Sep;
             Table.Row [ "total keys"; string_of_int (total_keys c) ];
             Table.Row [ "verdict digest"; digest c ];
           ]))
  in
  let div_lines =
    List.concat_map
      (fun ar ->
        List.map
          (fun (v : Verdict.leak_verdict) ->
            Printf.sprintf "DIVERGENCE %s %s %s\n" ar.ar_name
              (Verdict.string_of_key v.Verdict.v_key)
              (Verdict.string_of_bucket v.Verdict.v_bucket))
          (divergences ar))
      (divergent_reports c)
  in
  summary ^ String.concat "" div_lines
