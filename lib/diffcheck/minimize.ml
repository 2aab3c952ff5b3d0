(** Delta-debugging minimizer for divergent apps.

    Given an app on which one leak key lands in a {!Verdict.bucket} we
    want to preserve (normally a [DIVERGENCE]), shrink the app while
    the key keeps classifying into the same bucket.  Three greedy
    passes run to a fixpoint — drop whole classes, drop methods, drop
    single statements (with branch-target remapping) — in the spirit
    of Zeller & Hildebrandt's ddmin, specialised to the µJimple
    structure so every candidate is syntactically well formed.

    The oracle re-runs both engines on each candidate, so minimization
    cost is (candidates × tiny-app analysis time); the generated apps
    this is used on analyse in milliseconds.  Candidates whose static
    run does not complete cleanly are rejected: a divergence explained
    by a crash or an exhausted budget is a different bug than the one
    being shrunk. *)

open Fd_ir
module Apk = Fd_frontend.Apk
module Gen = Fd_appgen.Generator

(* ------------------------------------------------------------------ *)
(* structural edits                                                    *)
(* ------------------------------------------------------------------ *)

let with_classes apk classes = { apk with Apk.apk_classes = classes }

let drop_class apk cname =
  with_classes apk
    (List.filter (fun (c : Jclass.t) -> c.Jclass.c_name <> cname)
       apk.Apk.apk_classes)

let map_class apk cname f =
  with_classes apk
    (List.map
       (fun (c : Jclass.t) -> if c.Jclass.c_name = cname then f c else c)
       apk.Apk.apk_classes)

let drop_method apk cname mname =
  map_class apk cname (fun c ->
      {
        c with
        Jclass.c_methods =
          List.filter
            (fun (m : Jclass.jmethod) ->
              m.Jclass.jm_sig.Types.m_name <> mname)
            c.Jclass.c_methods;
      })

(** [drop_stmt body i] removes statement [i], shifting branch targets
    past it down by one; a branch {e to} [i] retargets the statement
    that followed it.  [None] when the edit cannot produce a
    well-formed body (target falls off the end, or the CFG rejects). *)
let drop_stmt (body : Body.t) i : Body.t option =
  let n = Array.length body.Body.stmts in
  let remap t =
    if t < i then Some t
    else if t > i then Some (t - 1)
    else if i < n - 1 then Some i (* old i+1 now sits at index i *)
    else None
  in
  let exception Bad in
  try
    let kept = ref [] in
    for j = n - 1 downto 0 do
      if j <> i then begin
        let s = body.Body.stmts.(j) in
        let kind =
          match s.Stmt.s_kind with
          | Stmt.If (c, t) -> (
              match remap t with Some t -> Stmt.If (c, t) | None -> raise Bad)
          | Stmt.Goto t -> (
              match remap t with Some t -> Stmt.Goto t | None -> raise Bad)
          | k -> k
        in
        kept := { s with Stmt.s_kind = kind } :: !kept
      end
    done;
    Some (Body.create ~locals:body.Body.locals !kept)
  with Bad | Body.Malformed _ -> None

let set_method_body apk cname mname body =
  map_class apk cname (fun c ->
      {
        c with
        Jclass.c_methods =
          List.map
            (fun (m : Jclass.jmethod) ->
              if m.Jclass.jm_sig.Types.m_name = mname then
                { m with Jclass.jm_body = Some body }
              else m)
            c.Jclass.c_methods;
      })

(* ------------------------------------------------------------------ *)
(* the oracle                                                          *)
(* ------------------------------------------------------------------ *)

(** [holds ?config ?coverage ~expected ~limits ~target apk] — does
    [target]'s key still produce the same verdict on [apk], with the
    static run completing cleanly?  The whole observation signature
    must survive — bucket {e and} the per-engine booleans — otherwise
    shrinking an explained-FN (dynamic sees it, static misses it)
    could delete the app entirely: a plant key nobody observes also
    classifies as explained-FN, but witnesses nothing.  Any exception
    (unloadable candidate, CFG rejection deep in a pass) means
    "no". *)
let holds ?config ?coverage ~expected ~limits ~(target : Verdict.leak_verdict)
    apk =
  match
    let static, outcome = Diffcheck.static_findings ?config [ apk ] in
    let dynamic = Diffcheck.dynamic_findings ?coverage [ apk ] in
    (static, outcome, dynamic)
  with
  | exception _ -> false
  | static, outcome, dynamic ->
      Fd_resilience.Outcome.is_complete outcome
      && (match
            List.find_opt
              (fun v -> v.Verdict.v_key = target.Verdict.v_key)
              (Verdict.classify
                 ~fixed:
                   (Diffcheck.fixed_of_config
                      (Option.value config ~default:Fd_core.Config.default))
                 ~static ~dynamic ~expected ~limits)
          with
         | Some v ->
             Verdict.equal_bucket v.Verdict.v_bucket target.Verdict.v_bucket
             && v.Verdict.v_static = target.Verdict.v_static
             && v.Verdict.v_dynamic = target.Verdict.v_dynamic
         | None -> false)

(* ------------------------------------------------------------------ *)
(* greedy passes                                                       *)
(* ------------------------------------------------------------------ *)

(** one round of each pass; [true] in the result when anything shrank *)
let round p apk =
  let changed = ref false in
  let try_edit apk cand =
    if p cand then begin
      changed := true;
      cand
    end
    else apk
  in
  (* pass 1: whole classes *)
  let apk =
    List.fold_left
      (fun apk (c : Jclass.t) -> try_edit apk (drop_class apk c.Jclass.c_name))
      apk apk.Apk.apk_classes
  in
  (* pass 2: methods *)
  let apk =
    List.fold_left
      (fun apk (c : Jclass.t) ->
        List.fold_left
          (fun apk (m : Jclass.jmethod) ->
            try_edit apk
              (drop_method apk c.Jclass.c_name m.Jclass.jm_sig.Types.m_name))
          apk c.Jclass.c_methods)
      apk apk.Apk.apk_classes
  in
  (* pass 3: single statements, last-to-first so indices of untried
     statements stay valid across successful removals *)
  let apk =
    List.fold_left
      (fun apk (c : Jclass.t) ->
        List.fold_left
          (fun apk (m : Jclass.jmethod) ->
            match m.Jclass.jm_body with
            | None -> apk
            | Some body0 ->
                let cname = c.Jclass.c_name in
                let mname = m.Jclass.jm_sig.Types.m_name in
                let n0 = Array.length body0.Body.stmts in
                let apk = ref apk in
                for i = n0 - 1 downto 0 do
                  let cur =
                    List.find_opt
                      (fun (c : Jclass.t) -> c.Jclass.c_name = cname)
                      !apk.Apk.apk_classes
                  in
                  match
                    Option.bind cur (fun c ->
                        Option.bind (Jclass.find_method_named c mname)
                          (fun m -> m.Jclass.jm_body))
                  with
                  | Some body when i < Array.length body.Body.stmts -> (
                      match drop_stmt body i with
                      | Some body' ->
                          apk :=
                            try_edit !apk (set_method_body !apk cname mname body')
                      | None -> ())
                  | _ -> ()
                done;
                !apk)
          apk c.Jclass.c_methods)
      apk apk.Apk.apk_classes
  in
  (apk, !changed)

(** [minimize ?config ?coverage ~expected ~limits ~target apk] shrinks
    [apk] while [target]'s key keeps producing [target]'s verdict.
    Returns [apk] unchanged if the verdict does not reproduce on the
    input (nothing to preserve — the caller's report was stale). *)
let minimize ?config ?coverage ~expected ~limits ~target apk =
  let p = holds ?config ?coverage ~expected ~limits ~target in
  if not (p apk) then apk
  else
    let rec fix apk =
      let apk', changed = round p apk in
      if changed then fix apk' else apk'
    in
    fix apk

(* ------------------------------------------------------------------ *)
(* reproducer emission                                                 *)
(* ------------------------------------------------------------------ *)

(** total statement count over all concrete method bodies — the size
    the acceptance bar (≤ 30) is measured in *)
let stmt_count apk =
  List.fold_left
    (fun a (c : Jclass.t) ->
      List.fold_left
        (fun a (m : Jclass.jmethod) ->
          match m.Jclass.jm_body with
          | Some b -> a + Array.length b.Body.stmts
          | None -> a)
        a c.Jclass.c_methods)
    0 apk.Apk.apk_classes

(** the textual-µJimple reproducer: manifest then every class, in a
    form {!Fd_frontend.Apk.of_dir} accepts when split across files *)
let reproducer_text apk =
  String.concat "\n"
    (Printf.sprintf "// %s — minimized reproducer (%d stmts)"
       apk.Apk.apk_name (stmt_count apk)
    :: "// AndroidManifest.xml:"
    :: List.map (fun l -> "//   " ^ l)
         (String.split_on_char '\n' apk.Apk.apk_manifest)
    @ List.map Fd_ir.Pretty.class_to_string apk.Apk.apk_classes)
