(** Persistent summary support: stable structural encodings of IFDS
    end summaries, content-addressed method digests, and the hook
    interface the {!Bidi} solver uses to reuse summaries across
    processes.

    The engine's facts are hash-consed per process — intern ids are
    dense and depend on discovery order, so they cannot be written to
    disk.  This module re-encodes every equality-relevant component of
    an {!Access_path.t} / {!Taint.fact} structurally (names, types,
    statement coordinates), which makes the encoding stable across
    independent intern pools, processes and machines.

    Addressing is content-based: a summary is valid for any method
    whose {e transitive} body digest matches — the Merkle digest of
    its SCC in the call-graph condensation (own body text, per-site
    resolved callee keys, child-SCC digests).  Analysis semantics are
    captured separately by {!config_digest}.  Together the two digests
    form the store key, so invalidation is automatic: change a body,
    a callee binding, the k-limit or a rule set and the key changes.

    The on-disk backend itself lives in [fd_store] (a separate
    library, so [fd_core] carries no I/O); it registers through
    {!provider}. *)

open Fd_ir
open Fd_callgraph
module Json = Fd_obs.Json
module SS = Fd_frontend.Sourcesink

let format_version = 1

(* ------------------------------------------------------------------ *)
(* Canonical structural encoding                                       *)
(* ------------------------------------------------------------------ *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

let jstr = function Json.String s -> s | _ -> fail "expected string"
let jint = function Json.Int i -> i | _ -> fail "expected int"
let jbool = function Json.Bool b -> b | _ -> fail "expected bool"
let jlist = function Json.List l -> l | _ -> fail "expected list"

let jfield k v =
  match Json.member k v with Some x -> x | None -> fail "missing field %s" k

let enc_local (l : Stmt.local) =
  Json.Obj
    [ ("n", String l.Stmt.l_name); ("t", String (Types.string_of_typ l.Stmt.l_type)) ]

let dec_local j =
  Stmt.mk_local ~ty:(Types.typ_of_string (jstr (jfield "t" j))) (jstr (jfield "n" j))

let enc_field (f : Types.field_sig) =
  Json.Obj
    [
      ("c", String f.Types.f_class);
      ("n", String f.Types.f_name);
      ("t", String (Types.string_of_typ f.Types.f_type));
    ]

let dec_field j =
  Types.mk_field
    ~ty:(Types.typ_of_string (jstr (jfield "t" j)))
    (jstr (jfield "c" j))
    (jstr (jfield "n" j))

let enc_base = function
  | Access_path.Bloc l -> Json.Obj [ ("k", String "l"); ("v", enc_local l) ]
  | Access_path.Bstatic f -> Json.Obj [ ("k", String "s"); ("v", enc_field f) ]

let dec_base j =
  match jstr (jfield "k" j) with
  | "l" -> Access_path.Bloc (dec_local (jfield "v" j))
  | "s" -> Access_path.Bstatic (dec_field (jfield "v" j))
  | k -> fail "bad base kind %s" k

let enc_ap (ap : Access_path.t) =
  Json.Obj
    [
      ("b", enc_base ap.Access_path.base);
      ("f", List (List.map enc_field ap.Access_path.fields));
    ]

let dec_ap j =
  {
    Access_path.base = dec_base (jfield "b" j);
    fields = List.map dec_field (jlist (jfield "f" j));
  }

let enc_node (n : Icfg.node) =
  Json.Obj
    [
      ("c", String n.Icfg.n_method.Mkey.mk_class);
      ("m", String n.Icfg.n_method.Mkey.mk_name);
      ("a", Int n.Icfg.n_method.Mkey.mk_arity);
      ("i", Int n.Icfg.n_idx);
    ]

let dec_node j =
  {
    Icfg.n_method =
      {
        Mkey.mk_class = jstr (jfield "c" j);
        mk_name = jstr (jfield "m" j);
        mk_arity = jint (jfield "a" j);
      };
    n_idx = jint (jfield "i" j);
  }

(* A source is either the {e caller's} source carried in by the entry
   fact — position-independent, encoded as the ["entry"] placeholder
   and substituted with the real source at decode — or a source
   statement inside the analysed subtree, encoded structurally. *)
let enc_source ~(entry_source : Taint.source_info option)
    (s : Taint.source_info) =
  match entry_source with
  | Some es when Taint.equal_source es s -> Json.String "entry"
  | _ ->
      Json.Obj
        ([
           ("cat", Json.String (SS.string_of_category s.Taint.si_category));
           ("n", enc_node s.Taint.si_node);
           ("d", String s.Taint.si_desc);
         ]
        @ match s.Taint.si_tag with
          | Some tag -> [ ("tag", Json.String tag) ]
          | None -> [])

let dec_source ~(entry_source : Taint.source_info option) = function
  | Json.String "entry" -> (
      match entry_source with
      | Some es -> es
      | None -> fail "entry source placeholder in a zero-entry context")
  | j ->
      {
        Taint.si_category = SS.category_of_string (jstr (jfield "cat" j));
        si_node = dec_node (jfield "n" j);
        si_tag = Option.map jstr (Json.member "tag" j);
        si_desc = jstr (jfield "d" j);
      }

let enc_fact ~entry_source = function
  | Taint.Zero -> Json.String "0"
  | Taint.T t ->
      Json.Obj
        ([
           ("ap", enc_ap t.Taint.ap);
           ("act", Json.Bool t.Taint.active);
           ("src", enc_source ~entry_source t.Taint.source);
         ]
        @ match t.Taint.activation with
          | Some a -> [ ("an", enc_node a) ]
          | None -> [])

(* an active fact decodes without its activation statement, as
   {!Taint.activate} builds it: entries written before active taints
   dropped theirs still decode to the facts the solver now derives *)
let dec_fact ~entry_source = function
  | Json.String "0" -> Taint.Zero
  | j ->
      let active = jbool (jfield "act" j) in
      Taint.T
        {
          Taint.ap = dec_ap (jfield "ap" j);
          active;
          activation =
            (if active then None else Option.map dec_node (Json.member "an" j));
          source = dec_source ~entry_source (jfield "src" j);
          pred = None;
          at = None;
          t_memo = 0;
        }

(* ------------------------------------------------------------------ *)
(* Sink reports                                                        *)
(* ------------------------------------------------------------------ *)

(** a leak detected inside a summarised subtree; stored alongside the
    summary edges and replayed on every store hit, so skipping the
    subtree never loses a verdict *)
type sink_report = {
  sr_source : Taint.source_info;
  sr_sink : Icfg.node;
  sr_tag : string option;  (** ground-truth tag of the sink statement *)
  sr_cat : SS.category;  (** sink category *)
}

let report_key r =
  Printf.sprintf "%s|%s|%s|%s"
    (Icfg.string_of_node r.sr_source.Taint.si_node)
    (Option.value r.sr_source.Taint.si_tag ~default:"-")
    (Icfg.string_of_node r.sr_sink)
    (SS.string_of_category r.sr_cat)

let enc_report ~entry_source r =
  Json.Obj
    ([
       ("src", enc_source ~entry_source r.sr_source);
       ("sink", enc_node r.sr_sink);
       ("cat", String (SS.string_of_category r.sr_cat));
     ]
    @ match r.sr_tag with Some t -> [ ("tag", Json.String t) ] | None -> [])

let dec_report ~entry_source j =
  {
    sr_source = dec_source ~entry_source (jfield "src" j);
    sr_sink = dec_node (jfield "sink" j);
    sr_tag = Option.map jstr (Json.member "tag" j);
    sr_cat = SS.category_of_string (jstr (jfield "cat" j));
  }

(* ------------------------------------------------------------------ *)
(* Entry facts and context keys                                        *)
(* ------------------------------------------------------------------ *)

(** [eligible_entry f]: only contexts whose entry fact is the zero
    fact or an active taint are stored — an inactive entry's
    activation node lies in the {e caller}, outside the summarised
    subtree, so its summaries are not position-independent.  Such
    contexts simply run cold.  An active taint carries no activation
    statement ({!Taint.activate}), so its key is position-independent. *)
let eligible_entry = function
  | Taint.Zero -> true
  | Taint.T t -> t.Taint.active

(** [entry_key f] is the canonical context key of an eligible entry
    fact: its structural encoding with the source abstracted to the
    ["entry"] placeholder, so callers with distinct sources but the
    same incoming access path share one stored context. *)
let entry_key = function
  | Taint.Zero -> "0"
  | Taint.T t as f ->
      Json.to_string (enc_fact ~entry_source:(Some t.Taint.source) f)

let entry_source = function
  | Taint.Zero -> None
  | Taint.T t -> Some t.Taint.source

(* ------------------------------------------------------------------ *)
(* Analysis-config digest                                              *)
(* ------------------------------------------------------------------ *)

(** [config_allows config] — store support is restricted to the
    semantics the canonical encoding can replay faithfully:
    - [activation_statements], [context_injection] and [alias_search]
      on (the paper defaults): the ablations change how alias facts
      cross summary boundaries;
    - no [provenance]: witness paths record intra-subtree hops that a
      skipped subtree cannot reproduce;
    - no first-use [<clinit>] placement: clinit exit relays jump to
      first-use sites {e outside} the caller's subtree, breaking the
      containment the store relies on;
    - no ICC tier: the resolver reads per-site [putExtra] taints from
      the solved engine, and a store-skipped subtree has no per-node
      results to read. *)
let config_allows (c : Config.t) =
  c.Config.activation_statements && c.Config.context_injection
  && c.Config.alias_search && (not c.Config.provenance)
  && (not c.Config.precision.Config.clinit)
  && not c.Config.icc

(* one canonical string per keyed value; a list is a set, so its
   rendering is sorted and deduplicated *)
let rec digest_value = function
  | Json.Int i -> string_of_int i
  | Json.Bool b -> if b then "1" else "0"
  | Json.String s -> s
  | Json.List vs ->
      String.concat "," (List.sort_uniq compare (List.map digest_value vs))
  | v -> Json.to_string v

(** [config_digest ~config ~sources ~wrappers ~natives] keys every
    analysis input that changes what a summary {e means}: the encoding
    format version, the config fields {!Config.encode} marks as keying
    summaries, the digests of the three rule sets, then the fields it
    marks as keying findings. *)
let config_digest ~config ~sources ~wrappers ~natives =
  let fields = Config.encode config in
  let keyed store =
    List.filter_map
      (fun (f : Config.field) ->
        if f.store = store then Some (f.key ^ "=" ^ digest_value f.value)
        else None)
      fields
  in
  let parts =
    (Printf.sprintf "v%d" format_version :: keyed Config.Keys_summaries)
    @ [
        "srcs=" ^ SS.digest sources;
        "wrap=" ^ Fd_frontend.Rules.digest wrappers;
        "nat=" ^ Fd_frontend.Rules.digest natives;
      ]
    @ keyed Config.Keys_findings
  in
  Digest.to_hex (Digest.string (String.concat ";" parts))

(* ------------------------------------------------------------------ *)
(* Transitive method digests (Merkle over the SCC condensation)        *)
(* ------------------------------------------------------------------ *)

type method_entry = {
  me_digest : string;  (** transitive body digest, MD5 hex *)
  me_eligible : bool;
      (** false when the method's subtree contains a layout-dependent
          UI source ([findViewById]) — those verdicts depend on
          per-app resource files, not on code digests *)
}

(* layout-registry sources resolve through the per-app XML resources;
   two apps with byte-identical code can disagree on them *)
let layout_dependent_call (inv : Stmt.invoke) =
  inv.Stmt.i_sig.Types.m_name = "findViewById"

let digest_methods (icfg : Icfg.t) : method_entry Mkey.Tbl.t =
  let methods = Callgraph.reachable_methods icfg.Icfg.cg in
  let bodies = Mkey.Tbl.create 256 in
  List.iter
    (fun mk ->
      match Icfg.body icfg mk with
      | body -> Mkey.Tbl.replace bodies mk body
      | exception Not_found -> ())
    methods;
  (* a method's own contribution: its identity, body text and the
     per-site resolved callee keys (direct, clinit, reflective) —
     bodyless targets are kept in the string with a marker, their
     semantics being covered by the rule-set digests — and whether it
     calls a layout-dependent source; its successors are its bodied
     targets *)
  let visit mk =
    let body = Mkey.Tbl.find bodies mk in
    let buf = Buffer.create 512 in
    Buffer.add_string buf (Mkey.to_string mk);
    Buffer.add_char buf '\n';
    Buffer.add_string buf (Pretty.body_to_string body);
    let targets = ref [] in
    Array.iteri
      (fun idx _ ->
        let node = { Icfg.n_method = mk; n_idx = idx } in
        let add tag mks =
          List.iter
            (fun t ->
              let marker = if Mkey.Tbl.mem bodies t then "" else "?" in
              targets := (t, Printf.sprintf "%d %s%s%s" idx tag marker (Mkey.to_string t)) :: !targets)
            mks
        in
        add "c:" (Icfg.callees icfg node);
        add "k:" (Icfg.clinit_callees icfg node);
        add "r:" (Icfg.refl_callees icfg node))
      body.Body.stmts;
    List.iter
      (fun line ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf line)
      (List.sort compare (List.map snd !targets));
    let ui_dependent =
      Array.exists
        (fun s ->
          match Stmt.invoke_of s with
          | Some inv -> layout_dependent_call inv
          | None -> false)
        body.Body.stmts
    in
    ( (Buffer.contents buf, ui_dependent),
      List.filter (fun t -> Mkey.Tbl.mem bodies t) (List.map fst !targets) )
  in
  (* a component's digest composes its members' local strings with the
     digests of the components it calls; it is eligible when no member
     and no callee component is layout-dependent *)
  let scc = Mkey.Tbl.create 256 in
  let finish members =
    let member_locals =
      List.sort compare (List.map (fun (_, (local, _), _) -> local) members)
    in
    let child_digests = ref [] in
    let eligible = ref true in
    List.iter
      (fun (_, (_, ui_dependent), targets) ->
        if ui_dependent then eligible := false;
        List.iter
          (fun t ->
            match Mkey.Tbl.find_opt scc t with
            | Some (d, e) ->
                child_digests := d :: !child_digests;
                if not e then eligible := false
            | None -> ())
          targets)
      members;
    ( Digest.to_hex
        (Digest.string
           (String.concat "\x00" member_locals
           ^ "\x01"
           ^ String.concat "\x00" (List.sort_uniq compare !child_digests))),
      !eligible )
  in
  let out = Mkey.Tbl.create 256 in
  Mkey.Tbl.iter
    (fun mk _ ->
      let d, eligible = Scc.condense scc ~visit ~finish mk in
      Mkey.Tbl.replace out mk
        {
          me_digest =
            Digest.to_hex (Digest.string (Mkey.to_string mk ^ "\x00" ^ d));
          me_eligible = eligible;
        })
    bodies;
  out

(* ------------------------------------------------------------------ *)
(* Solver hook interface                                               *)
(* ------------------------------------------------------------------ *)

(** what a store hit injects in place of descending into a callee *)
type injection = {
  inj_summaries : (int * Taint.fact) list;
      (** (exit statement index, decoded exit fact) pairs — the end
          summaries of the stored context *)
  inj_reports : sink_report list;
      (** leaks recorded inside the subtree, sources already
          substituted for this caller *)
}

(** one solved context of a method, as handed to the persistence hook *)
type persist_context = {
  pc_entry : Taint.fact;
  pc_summaries : (int * Taint.fact) list;
  pc_reports : sink_report list;
}

type hooks = {
  h_eligible : Mkey.t -> bool;
      (** digested and transitively layout-independent *)
  h_lookup : callee:Mkey.t -> entry:Taint.fact -> injection option;
      (** [None] = miss: descend as usual *)
  h_persist : callee:Mkey.t -> persist_context list -> unit;
      (** write-behind persistence of freshly solved contexts *)
}

(* ------------------------------------------------------------------ *)
(* Backend provider (implemented by fd_store)                          *)
(* ------------------------------------------------------------------ *)

(** the raw storage interface [fd_core] programs against: payloads are
    whole-method JSON objects [{"m": key, "cxs": {entry-key: ctx}}];
    the backend owns framing, checksums, atomicity and merging *)
type backend = {
  be_load : method_digest:string -> Json.t option;
      (** decoded payload, or [None] on miss {e and} on any corrupt /
          truncated / mismatched entry (backends must degrade, never
          raise) *)
  be_store : method_digest:string -> payload:Json.t -> unit;
      (** atomically merge [payload] into the entry, keeping existing
          contexts on key collisions *)
  be_diag : Fd_resilience.Diag.t -> unit;
      (** report a non-fatal store anomaly *)
}

(** set by [Fd_store.install ()]; [fd_core] itself ships no backend,
    so linking the store library is what turns the flag on *)
let provider : (dir:string -> config_digest:string -> backend option) ref =
  ref (fun ~dir:_ ~config_digest:_ -> None)

(* ------------------------------------------------------------------ *)
(* Hook construction                                                   *)
(* ------------------------------------------------------------------ *)

let dec_context ~entry cx =
  let entry_source = entry_source entry in
  let summaries =
    List.map
      (fun j ->
        match j with
        | Json.List [ idx; f ] -> (jint idx, dec_fact ~entry_source f)
        | _ -> fail "bad summary pair")
      (jlist (jfield "s" cx))
  in
  let reports = List.map (dec_report ~entry_source) (jlist (jfield "r" cx)) in
  { inj_summaries = summaries; inj_reports = reports }

let enc_context pc =
  let entry_source = entry_source pc.pc_entry in
  Json.Obj
    [
      ( "s",
        List
          (List.map
             (fun (idx, f) ->
               Json.List [ Json.Int idx; enc_fact ~entry_source f ])
             pc.pc_summaries) );
      ("r", List (List.map (enc_report ~entry_source) pc.pc_reports));
    ]

(** [make_hooks ~icfg ~config ~sources ~wrappers ~natives] builds the
    solver hooks for one analysis run, or [None] when the store is
    disabled ([summary_store = None]), the configuration is outside
    {!config_allows}, or no backend is linked/installable.  Digesting
    every reachable method happens here, once per app. *)
let make_hooks ~icfg ~(config : Config.t) ~sources ~wrappers ~natives =
  match config.Config.summary_store with
  | None -> None
  | Some _ when not (config_allows config) -> None
  | Some dir -> (
      let cfg_digest = config_digest ~config ~sources ~wrappers ~natives in
      match !provider ~dir ~config_digest:cfg_digest with
      | None -> None
      | Some be ->
          let table = digest_methods icfg in
          let m_hits = Fd_obs.Metrics.counter "store.hits" in
          let m_misses = Fd_obs.Metrics.counter "store.misses" in
          (* per-run cache of decoded payloads, keyed by method digest:
             one disk read per method, not per context *)
          let loaded : (string, (string * Json.t) list option) Hashtbl.t =
            Hashtbl.create 64
          in
          let payload_contexts digest =
            match Hashtbl.find_opt loaded digest with
            | Some cxs -> cxs
            | None ->
                let cxs =
                  match be.be_load ~method_digest:digest with
                  | None -> None
                  | Some payload -> (
                      match Json.member "cxs" payload with
                      | Some (Json.Obj kvs) -> Some kvs
                      | _ ->
                          be.be_diag
                            (Fd_resilience.Diag.make ~file:"summary-store"
                               (Printf.sprintf
                                  "malformed payload for %s: no contexts \
                                   object"
                                  digest));
                          None)
                in
                Hashtbl.replace loaded digest cxs;
                cxs
          in
          let h_eligible mk =
            match Mkey.Tbl.find_opt table mk with
            | Some me -> me.me_eligible
            | None -> false
          in
          let h_lookup ~callee ~entry =
            match Mkey.Tbl.find_opt table callee with
            | Some me when me.me_eligible && eligible_entry entry -> (
                match payload_contexts me.me_digest with
                | None ->
                    Fd_obs.Metrics.incr m_misses;
                    None
                | Some cxs -> (
                    match List.assoc_opt (entry_key entry) cxs with
                    | None ->
                        Fd_obs.Metrics.incr m_misses;
                        None
                    | Some cx -> (
                        match dec_context ~entry cx with
                        | inj ->
                            Fd_obs.Metrics.incr m_hits;
                            Some inj
                        | exception Decode_error msg ->
                            be.be_diag
                              (Fd_resilience.Diag.make ~file:"summary-store"
                                 (Printf.sprintf
                                    "undecodable context for %s (%s): \
                                     treated as a miss"
                                    (Mkey.to_string callee) msg));
                            Fd_obs.Metrics.incr m_misses;
                            None)))
            | _ -> None
          in
          let h_persist ~callee cxs =
            match Mkey.Tbl.find_opt table callee with
            | Some me when me.me_eligible && cxs <> [] ->
                let payload =
                  Json.Obj
                    [
                      ("m", String (Mkey.to_string callee));
                      ( "cxs",
                        Obj
                          (List.map
                             (fun pc -> (entry_key pc.pc_entry, enc_context pc))
                             cxs) );
                    ]
                in
                be.be_store ~method_digest:me.me_digest ~payload
            | _ -> ()
          in
          Some { h_eligible; h_lookup; h_persist })
