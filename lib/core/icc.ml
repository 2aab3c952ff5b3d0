(** The ICC link resolver: inter-component and inter-app taint flows.

    FlowDroid over-approximates ICC (intent send = sink, intent
    reception = source) and names EPICC/IccTA-style integration as
    future work.  This module is that integration, behind
    {!Config.t.icc}:

    + an {e intent constant analysis} (driven by
      {!Fd_precision.Const_prop}) abstracts every intent-typed local
      into the explicit targets, actions, categories, data URIs and
      constant extra keys assigned to it — [setAction] / [setClass] /
      [setData] / [putExtra] chains through local copies;
    + the {e link resolver} matches those abstract intents against the
      manifests' intent filters with Android's resolution rules
      ({!Fd_frontend.Manifest.filter_matches}); across app boundaries
      a target must additionally be exported;
    + {e flow composition} stitches a sending-side flow
      [src → send(i)] whose intent resolves to component [T] with
      every reception-sourced flow [reception → sink] inside [T],
      refined per extra key: a flow into [putExtra("k", v)] only
      stitches to receptions reading key ["k"] (or reading the whole
      bundle).  Resolved sends stop being leaks by themselves;
      unresolved or external sends stay sinks and are reported as the
      app's attack surface, and tainted [setResult] payloads become
      leaks to the (unknown, possibly hostile) external caller.

    Stitched findings carry real concatenated witnesses: the sender's
    witness, then the receiver's with its first step re-kinded to
    ["icc"] — the marker witness validation accepts as a cross-
    component boundary. *)

open Fd_ir
open Fd_callgraph
module SS = Fd_frontend.Sourcesink
module M = Fd_frontend.Manifest
module CP = Fd_precision.Const_prop

let result_methods = [ "setResult" ]

(* tier observability: what the resolver did, in --stats-json *)
let g_sites = Fd_obs.Metrics.gauge "icc.send_sites"
let g_resolved = Fd_obs.Metrics.gauge "icc.resolved_sends"
let g_unmatched = Fd_obs.Metrics.gauge "icc.unmatched_sends"
let g_stitched = Fd_obs.Metrics.gauge "icc.stitched_flows"
let g_dropped = Fd_obs.Metrics.gauge "icc.dropped_sends"
let g_result_leaks = Fd_obs.Metrics.gauge "icc.result_leaks"
let g_exported = Fd_obs.Metrics.gauge "icc.exported_components"

(* ------------------------------------------------------------------ *)
(* Intent constant analysis                                            *)
(* ------------------------------------------------------------------ *)

(* the abstract value of one intent object: everything the constant
   analysis proved its setter chains assign.  Mutable accumulator
   shared between copy-related locals. *)
type abs_intent = {
  mutable ab_classes : string list;  (** possible explicit targets *)
  mutable ab_actions : string list;
  mutable ab_categories : string list;
  mutable ab_data : string list;  (** data URIs *)
  mutable ab_mimes : string list;
  mutable ab_extras : (string * int) list;  (** constant key → putExtra idx *)
  mutable ab_extras_unknown : bool;
      (** a [putExtra] with non-constant key, or [putExtras] *)
  mutable ab_opaque : bool;
      (** a targeting setter took a non-constant argument: the true
          target set is unknowable, the send must stay a sink *)
}

let fresh_abs () =
  {
    ab_classes = [];
    ab_actions = [];
    ab_categories = [];
    ab_data = [];
    ab_mimes = [];
    ab_extras = [];
    ab_extras_unknown = false;
    ab_opaque = false;
  }

let add_uniq x xs = if List.mem x xs then xs else x :: xs

let str_of cp ~at imm =
  match imm with
  | Stmt.Iconst (Stmt.CStr s) -> Some s
  | _ -> (
      match CP.imm_value cp ~at imm with Some (CP.Vstr s) -> Some s | _ -> None)

let cls_of cp ~at imm =
  match imm with
  | Stmt.Iconst (Stmt.CClassRef c) -> Some c
  | _ -> (
      match CP.imm_value cp ~at imm with
      | Some (CP.Vclass c) -> Some c
      | _ -> None)

(* the Intent mutators the abstraction interprets; everything else on
   an intent (getters, flags, …) is target-neutral *)
let intent_setters =
  [
    "<init>"; "setClass"; "setClassName"; "setComponent"; "setAction";
    "addCategory"; "setData"; "setType"; "setDataAndType"; "putExtra";
    "putExtras";
  ]

let apply_setter cp ab (inv : Stmt.invoke) ~at =
  let str = str_of cp ~at and cls = cls_of cp ~at in
  match inv.Stmt.i_sig.Types.m_name with
  | "<init>" ->
      (* new Intent() / new Intent(action) / new Intent(ctx, C.class):
         a dotted string constant is read as either an action or an
         explicit class name — resolution tries both *)
      List.iter
        (fun a ->
          match cls a with
          | Some c -> ab.ab_classes <- add_uniq c ab.ab_classes
          | None -> (
              match str a with
              | Some s when String.contains s ':' ->
                  ab.ab_data <- add_uniq s ab.ab_data
              | Some s ->
                  ab.ab_actions <- add_uniq s ab.ab_actions;
                  if String.contains s '.' then
                    ab.ab_classes <- add_uniq s ab.ab_classes
              | None -> ()))
        inv.Stmt.i_args
  | "setClass" | "setClassName" | "setComponent" ->
      let found = ref false in
      List.iter
        (fun a ->
          match cls a with
          | Some c ->
              found := true;
              ab.ab_classes <- add_uniq c ab.ab_classes
          | None -> (
              match str a with
              | Some c ->
                  found := true;
                  ab.ab_classes <- add_uniq c ab.ab_classes
              | None -> ()))
        inv.Stmt.i_args;
      if not !found then ab.ab_opaque <- true
  | "setAction" -> (
      match inv.Stmt.i_args with
      | a :: _ -> (
          match str a with
          | Some s -> ab.ab_actions <- add_uniq s ab.ab_actions
          | None -> ab.ab_opaque <- true)
      | [] -> ())
  | "addCategory" -> (
      (* an unknown category only *narrows* the filter match; ignoring
         it over-approximates the target set, which is the safe
         direction for the drop-resolved-sends decision *)
      match inv.Stmt.i_args with
      | a :: _ -> (
          match str a with
          | Some s -> ab.ab_categories <- add_uniq s ab.ab_categories
          | None -> ())
      | [] -> ())
  | "setData" -> (
      match inv.Stmt.i_args with
      | a :: _ -> (
          match str a with
          | Some s -> ab.ab_data <- add_uniq s ab.ab_data
          | None -> ab.ab_opaque <- true)
      | [] -> ())
  | "setType" -> (
      match inv.Stmt.i_args with
      | a :: _ -> (
          match str a with
          | Some s -> ab.ab_mimes <- add_uniq s ab.ab_mimes
          | None -> ab.ab_opaque <- true)
      | [] -> ())
  | "setDataAndType" -> (
      match inv.Stmt.i_args with
      | d :: t :: _ ->
          (match str d with
          | Some s -> ab.ab_data <- add_uniq s ab.ab_data
          | None -> ab.ab_opaque <- true);
          (match str t with
          | Some s -> ab.ab_mimes <- add_uniq s ab.ab_mimes
          | None -> ab.ab_opaque <- true)
      | _ -> ())
  | "putExtra" -> (
      match inv.Stmt.i_args with
      | k :: _ :: _ -> (
          match str k with
          | Some key -> ab.ab_extras <- add_uniq (key, at) ab.ab_extras
          | None -> ab.ab_extras_unknown <- true)
      | _ -> ())
  | "putExtras" -> ab.ab_extras_unknown <- true
  | _ -> ()

let intent_class = "android.content.Intent"

let is_intent_call (inv : Stmt.invoke) =
  inv.Stmt.i_recv <> None
  && (inv.Stmt.i_sig.Types.m_class = intent_class
     || List.mem inv.Stmt.i_sig.Types.m_name intent_setters)
  && List.mem inv.Stmt.i_sig.Types.m_name intent_setters

(** [intents_in_body body] — one shared {!abs_intent} per copy-related
    family of intent locals (flow-insensitive per method; intents are
    short-lived locals in practice). *)
let intents_in_body body =
  let cp = CP.analyze body in
  (* union-find over local names: copies share one accumulator *)
  let parent : (string, string) Hashtbl.t = Hashtbl.create 7 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
    | _ -> x
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  Body.iter body (fun s ->
      match s.Stmt.s_kind with
      | Stmt.Assign (Stmt.Llocal dst, Stmt.Eimm (Stmt.Iloc src)) ->
          union dst.Stmt.l_name src.Stmt.l_name
      | _ -> ());
  let accs : (string, abs_intent) Hashtbl.t = Hashtbl.create 7 in
  let acc_of l =
    let r = find l in
    match Hashtbl.find_opt accs r with
    | Some a -> a
    | None ->
        let a = fresh_abs () in
        Hashtbl.replace accs r a;
        a
  in
  Body.iter body (fun s ->
      match Stmt.invoke_of s with
      | Some inv when is_intent_call inv -> (
          match inv.Stmt.i_recv with
          | Some r ->
              apply_setter cp (acc_of r.Stmt.l_name) inv ~at:s.Stmt.s_idx
          | None -> ())
      | _ -> ());
  fun l -> Hashtbl.find_opt accs (find l)

(* abstract intent → the possible intent descriptors to resolve
   ([None] = nothing provable, treat as an unknown send) *)
let descs_of ab : M.intent_desc list option =
  if ab.ab_opaque then None
  else
    match
      M.intent_descs ~classes:ab.ab_classes ~actions:ab.ab_actions
        ~categories:ab.ab_categories ~uris:ab.ab_data ~mimes:ab.ab_mimes
    with
    | [] -> None
    | ds -> Some ds

(* ------------------------------------------------------------------ *)
(* Send sites                                                          *)
(* ------------------------------------------------------------------ *)

type send_site = {
  ss_node : Icfg.node;  (** the startActivity / sendBroadcast call *)
  ss_method : string;  (** the send method's name *)
  ss_descs : M.intent_desc list option;
      (** possible intents; [None] = unknown (the send stays a sink) *)
  ss_extras : (string * Icfg.node) list;
      (** constant extra key → the [putExtra] site that wrote it *)
  ss_extras_unknown : bool;
}

(* the intent argument of a send/setResult call: the first local
   argument with intent info, else the first intent-typed local *)
let intent_arg lookup (inv : Stmt.invoke) =
  let locs =
    List.filter_map
      (function Stmt.Iloc l -> Some l | Stmt.Iconst _ -> None)
      inv.Stmt.i_args
  in
  match List.find_opt (fun l -> lookup l.Stmt.l_name <> None) locs with
  | Some l -> Some l
  | None ->
      List.find_opt
        (fun (l : Stmt.local) ->
          match l.Stmt.l_type with
          | Types.Ref c -> c = intent_class
          | _ -> false)
        locs

(** [send_sites icfg] — every intent-send call site among the
    reachable methods, with its abstract intent; and every [setResult]
    site with its intent local. *)
let send_sites (icfg : Icfg.t) =
  let sites = ref [] and results = ref [] in
  List.iter
    (fun mkey ->
      match Callgraph.body_of icfg.Icfg.cg mkey with
      | exception Not_found -> ()
      | body ->
          let lookup = intents_in_body body in
          Body.iter body (fun s ->
              match Stmt.invoke_of s with
              | Some inv
                when List.mem inv.Stmt.i_sig.Types.m_name M.send_methods -> (
                  let node = Icfg.{ n_method = mkey; n_idx = s.Stmt.s_idx } in
                  match intent_arg lookup inv with
                  | None -> ()
                  | Some l ->
                      let ab =
                        Option.value (lookup l.Stmt.l_name)
                          ~default:(fresh_abs ())
                      in
                      sites :=
                        {
                          ss_node = node;
                          ss_method = inv.Stmt.i_sig.Types.m_name;
                          ss_descs = descs_of ab;
                          ss_extras =
                            List.map
                              (fun (k, idx) ->
                                (k, Icfg.{ n_method = mkey; n_idx = idx }))
                              ab.ab_extras;
                          ss_extras_unknown = ab.ab_extras_unknown;
                        }
                        :: !sites)
              | Some inv
                when List.mem inv.Stmt.i_sig.Types.m_name result_methods -> (
                  match intent_arg lookup inv with
                  | Some l ->
                      results :=
                        ( Icfg.{ n_method = mkey; n_idx = s.Stmt.s_idx },
                          l,
                          s.Stmt.s_tag )
                        :: !results
                  | None -> ())
              | _ -> ()))
    (Callgraph.reachable_methods icfg.Icfg.cg);
  (List.rev !sites, List.rev !results)

(* ------------------------------------------------------------------ *)
(* Link resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* does any manifest declare this class (as a component)? *)
let declared apps cls =
  List.exists (fun (_, m) -> M.find m cls <> None) apps

(* ------------------------------------------------------------------ *)
(* Flow composition                                                    *)
(* ------------------------------------------------------------------ *)

let is_reception_source (fd : Bidi.finding) =
  fd.Bidi.f_source.Taint.si_category = SS.Intent_data

(* the source of [fd] sits in component [cls]'s code (or an app-level
   supertype of it) *)
let receives_in scene cls (fd : Bidi.finding) =
  is_reception_source fd
  &&
  let owner = fd.Bidi.f_source.Taint.si_node.Icfg.n_method.Mkey.mk_class in
  Scene.is_subtype scene owner cls || owner = cls

(* bundle-reading source methods that name their key as a constant
   first argument; anything else reads the whole payload *)
let keyed_readers =
  [ "getStringExtra"; "getString"; "getCharSequenceExtra"; "getIntExtra" ]

(** [reception_key icfg fd] — the extra key a reception-sourced
    finding reads, when its source statement names one as a constant
    ([None] = reads the whole intent/bundle, matches any key). *)
let reception_key (icfg : Icfg.t) (fd : Bidi.finding) =
  match Icfg.stmt icfg fd.Bidi.f_source.Taint.si_node with
  | exception Not_found -> None
  | s -> (
      match Stmt.invoke_of s with
      | Some inv when List.mem inv.Stmt.i_sig.Types.m_name keyed_readers -> (
          match inv.Stmt.i_args with
          | Stmt.Iconst (Stmt.CStr k) :: _ -> Some k
          | _ -> None)
      | _ -> None)

(* the active taints covering an immediate just before [node] *)
let taints_reaching engine node imm =
  match imm with
  | Stmt.Iconst _ -> []
  | Stmt.Iloc l ->
      let ap = Access_path.of_local l in
      List.filter
        (fun (t : Taint.t) ->
          t.Taint.active && Access_path.reaches ~taint:t.Taint.ap ap)
        (Bidi.results_at engine node)

(* distinct sources flowing into each constant extra key of a site *)
let key_sources engine (icfg : Icfg.t) site =
  List.filter_map
    (fun (key, node) ->
      match Icfg.stmt icfg node with
      | exception Not_found -> None
      | s -> (
          match Stmt.invoke_of s with
          | Some inv -> (
              match inv.Stmt.i_args with
              | _ :: v :: _ -> (
                  match taints_reaching engine node v with
                  | [] -> None
                  | ts ->
                      let srcs =
                        List.fold_left
                          (fun acc (t : Taint.t) ->
                            if
                              List.exists
                                (Taint.equal_source t.Taint.source)
                                acc
                            then acc
                            else t.Taint.source :: acc)
                          [] ts
                      in
                      Some (key, List.rev srcs))
              | _ -> None)
          | None -> None))
    site.ss_extras

type stitched = {
  st_finding : Bidi.finding;
  st_via : Icfg.node;  (** the resolved intent-send site *)
  st_target : string;  (** receiving component class *)
  st_key : string option;  (** matched extra key; [None] = whole intent *)
}

type surface_reason =
  | Unknown_intent  (** the constant analysis could not pin the target *)
  | No_match  (** a known intent no declared component receives *)
  | External of string  (** explicit target class outside the scene *)

type surface_entry = {
  su_node : Icfg.node;
  su_method : string;
  su_reason : surface_reason;
}

let string_of_reason = function
  | Unknown_intent -> "unknown-intent"
  | No_match -> "no-match"
  | External c -> "external:" ^ c

type report = {
  ic_send_sites : int;
  ic_resolved : int;  (** sites with ≥ 1 in-scene receiving component *)
  ic_stitched : stitched list;
  ic_result_leaks : Bidi.finding list;
      (** tainted [setResult] payloads handed to the external caller *)
  ic_dropped : Bidi.finding list;
      (** resolved send-as-sink findings replaced by stitched flows *)
  ic_surface : surface_entry list;  (** sends that leave the scene *)
  ic_exported : (string * string) list;
      (** the exported attack surface: (app, component class) *)
}

(* stitch one sender flow to one reception flow *)
let stitch (sender : Bidi.finding) ~via ~target ~key (rx : Bidi.finding) =
  let witness =
    match (sender.Bidi.f_witness, rx.Bidi.f_witness) with
    | (_ :: _ as sw), r0 :: rrest ->
        sw @ ({ r0 with Bidi.ws_kind = "icc" } :: rrest)
    | _ -> []
  in
  {
    st_finding =
      {
        Bidi.f_source = sender.Bidi.f_source;
        Bidi.f_sink_node = rx.Bidi.f_sink_node;
        Bidi.f_sink_tag = rx.Bidi.f_sink_tag;
        Bidi.f_sink_cat = rx.Bidi.f_sink_cat;
        Bidi.f_path = sender.Bidi.f_path @ rx.Bidi.f_path;
        Bidi.f_witness = witness;
      };
    st_via = via;
    st_target = target;
    st_key = key;
  }

(* the same flow, by {!Bidi.compare_finding}'s identity *)
let same_finding a b = Bidi.compare_finding a b = 0

(** [analyze ~icfg ~scene ~engine ~apps ~app_of findings] runs the
    resolver over a solved engine: finds and resolves the send sites,
    stitches flows (iterating so relayed intents A→B→C compose
    transitively), synthesises [setResult] leaks and the attack
    surface, and records the [icc.*] gauges. *)
let analyze ~(icfg : Icfg.t) ~scene ~engine ~(provenance : bool)
    ~(apps : (string * M.t) list) ~app_of (findings : Bidi.finding list) =
  let sites, result_sites = send_sites icfg in
  (* resolve every site once *)
  let resolved_of site =
    match site.ss_descs with
    | None -> []
    | Some descs ->
        M.receivers ~apps
          ~sender_app:(app_of site.ss_node.Icfg.n_method.Mkey.mk_class)
          descs
  in
  let site_targets = List.map (fun s -> (s, resolved_of s)) sites in
  let resolved_sites =
    List.filter_map (fun (s, ts) -> if ts <> [] then Some s else None)
      site_targets
  in
  let is_resolved_node n =
    List.exists (fun s -> Icfg.equal_node s.ss_node n) resolved_sites
  in
  let receptions = List.filter is_reception_source findings in
  (* hop 1: per-extra-key precision — a sender source stitches through
     key "k" only to receptions reading "k" (or the whole payload) *)
  let compose_site (site, targets) =
    if targets = [] then []
    else begin
      let keyed = key_sources engine icfg site in
      let base_senders =
        List.filter
          (fun (f : Bidi.finding) ->
            Icfg.equal_node f.Bidi.f_sink_node site.ss_node)
          findings
      in
      let sender_for src =
        List.find_opt
          (fun (f : Bidi.finding) ->
            Taint.equal_source f.Bidi.f_source src)
          base_senders
      in
      List.concat_map
        (fun (_, (comp : M.component)) ->
          let rxs =
            List.filter (receives_in scene comp.M.comp_class) receptions
          in
          List.concat_map
            (fun (rx : Bidi.finding) ->
              let rx_key = reception_key icfg rx in
              (* sources reaching the key the reception reads *)
              let keyed_hits =
                List.concat_map
                  (fun (k, srcs) ->
                    match rx_key with
                    | Some rk when rk <> k -> []
                    | _ -> List.map (fun s -> (Some k, s)) srcs)
                  keyed
              in
              (* whole-intent fallback: unknown extra keys mean any
                 sender flow into the site may reach any reader *)
              let whole_hits =
                if site.ss_extras_unknown then
                  List.map
                    (fun (f : Bidi.finding) -> (None, f.Bidi.f_source))
                    base_senders
                else []
              in
              List.filter_map
                (fun (key, src) ->
                  match sender_for src with
                  | Some sender ->
                      Some
                        (stitch sender ~via:site.ss_node
                           ~target:comp.M.comp_class ~key rx)
                  | None -> None)
                (keyed_hits @ whole_hits))
            rxs)
        targets
    end
  in
  let hop1 = List.concat_map compose_site site_targets in
  (* further hops: a stitched flow whose sink is itself a resolved
     send relays onward (A→B→C); key precision is exhausted after the
     first hop, so any tainted reception in the next target matches *)
  let compose_from (flows : stitched list) =
    List.concat_map
      (fun st ->
        let f = st.st_finding in
        match
          List.find_opt
            (fun (s, ts) ->
              ts <> [] && Icfg.equal_node s.ss_node f.Bidi.f_sink_node)
            site_targets
        with
        | None -> []
        | Some (site, targets) ->
            List.concat_map
              (fun (_, (comp : M.component)) ->
                List.filter_map
                  (fun (rx : Bidi.finding) ->
                    if receives_in scene comp.M.comp_class rx then
                      Some
                        (stitch f ~via:site.ss_node
                           ~target:comp.M.comp_class ~key:st.st_key rx)
                    else None)
                  receptions)
              targets)
      flows
  in
  let rec fixpoint seen frontier rounds =
    if frontier = [] || rounds = 0 then seen
    else begin
      let next = compose_from frontier in
      let fresh =
        List.filter
          (fun st ->
            not
              (List.exists
                 (fun st' ->
                   same_finding st'.st_finding st.st_finding)
                 seen))
          next
      in
      fixpoint (seen @ fresh) fresh (rounds - 1)
    end
  in
  let all_stitched = fixpoint hop1 hop1 3 in
  (* flows whose sink is an intermediate resolved send are relays, not
     final findings *)
  let final_stitched =
    List.filter
      (fun st -> not (is_resolved_node st.st_finding.Bidi.f_sink_node))
      all_stitched
  in
  (* dedupe: the same end-to-end flow can stitch via several targets *)
  let final_stitched =
    List.rev
      (List.fold_left
         (fun acc st ->
           if
             List.exists
               (fun st' -> same_finding st'.st_finding st.st_finding)
               acc
           then acc
           else st :: acc)
         [] final_stitched)
  in
  (* tainted setResult payloads: handed back to an external (possibly
     hostile) caller — a leak the send = sink over-approximation
     misses entirely (DroidBench IntentSink1) *)
  let result_leaks =
    List.concat_map
      (fun (node, l, tag) ->
        let ts = taints_reaching engine node (Stmt.Iloc l) in
        let srcs =
          List.fold_left
            (fun acc (t : Taint.t) ->
              if
                List.exists
                  (fun (s, _) -> Taint.equal_source s t.Taint.source)
                  acc
              then acc
              else (t.Taint.source, t) :: acc)
            [] ts
        in
        List.map
          (fun ((src : Taint.source_info), (t : Taint.t)) ->
            let witness =
              (* a minimal two-step witness; the boundary step's "icc"
                 kind marks the framework hand-off validation accepts *)
              if not provenance then []
              else
                match Icfg.stmt icfg node with
                | exception Not_found -> []
                | s ->
                    [
                      {
                        Bidi.ws_node = src.Taint.si_node;
                        Bidi.ws_stmt =
                          (match Icfg.stmt icfg src.Taint.si_node with
                          | stmt -> Stmt.to_string stmt
                          | exception Not_found -> "<source>");
                        Bidi.ws_fact = Taint.to_string t;
                        Bidi.ws_kind = "source";
                      };
                      {
                        Bidi.ws_node = node;
                        Bidi.ws_stmt = Stmt.to_string s;
                        Bidi.ws_fact = Taint.to_string t;
                        Bidi.ws_kind = "icc";
                      };
                    ]
            in
            {
              Bidi.f_source = src;
              Bidi.f_sink_node = node;
              Bidi.f_sink_tag = tag;
              Bidi.f_sink_cat = SS.Intent_data;
              Bidi.f_path = Taint.path t @ [ node ];
              Bidi.f_witness = witness;
            })
          (List.rev srcs))
      result_sites
  in
  (* resolved sends stop being leaks; everything else is surface *)
  let dropped =
    List.filter
      (fun (f : Bidi.finding) -> is_resolved_node f.Bidi.f_sink_node)
      findings
  in
  let surface =
    List.filter_map
      (fun (site, targets) ->
        if targets <> [] then None
        else
          let reason =
            match site.ss_descs with
            | None -> Unknown_intent
            | Some descs -> (
                match
                  List.find_map
                    (fun (d : M.intent_desc) ->
                      match d.M.it_class with
                      | Some c when not (declared apps c) -> Some c
                      | _ -> None)
                    descs
                with
                | Some c -> External c
                | None -> No_match)
          in
          Some
            {
              su_node = site.ss_node;
              su_method = site.ss_method;
              su_reason = reason;
            })
      site_targets
  in
  let exported =
    List.concat_map
      (fun (app_name, m) ->
        List.filter_map
          (fun (c : M.component) ->
            if c.M.comp_enabled && c.M.comp_exported then
              Some (app_name, c.M.comp_class)
            else None)
          m.M.components)
      apps
  in
  let report =
    {
      ic_send_sites = List.length sites;
      ic_resolved = List.length resolved_sites;
      ic_stitched = final_stitched;
      ic_result_leaks = result_leaks;
      ic_dropped = dropped;
      ic_surface = surface;
      ic_exported = exported;
    }
  in
  Fd_obs.Metrics.set_int g_sites report.ic_send_sites;
  Fd_obs.Metrics.set_int g_resolved report.ic_resolved;
  Fd_obs.Metrics.set_int g_unmatched (List.length report.ic_surface);
  Fd_obs.Metrics.set_int g_stitched (List.length report.ic_stitched);
  Fd_obs.Metrics.set_int g_dropped (List.length report.ic_dropped);
  Fd_obs.Metrics.set_int g_result_leaks (List.length report.ic_result_leaks);
  Fd_obs.Metrics.set_int g_exported (List.length report.ic_exported);
  report

(** [added report] — the findings the tier adds (stitched flows plus
    [setResult] leaks), once each, in {!Bidi.compare_finding} order. *)
let added report =
  let fds =
    List.map (fun st -> st.st_finding) report.ic_stitched
    @ report.ic_result_leaks
  in
  List.sort_uniq Bidi.compare_finding fds

(** [apply report findings] — the tier-on view: the base findings
    minus the resolved send-as-sink ones, plus the {!added} ones no
    base finding already reports, in {!Bidi.compare_finding} order. *)
let apply report (findings : Bidi.finding list) =
  let keep =
    List.filter
      (fun f -> not (List.exists (same_finding f) report.ic_dropped))
      findings
  in
  List.sort Bidi.compare_finding
    (keep
    @ List.filter
        (fun f -> not (List.exists (same_finding f) keep))
        (added report))
