(** AndroidManifest.xml parsing.

    The manifest declares the app's components; FlowDroid reads it to
    know which classes are entry-point components, whether they are
    enabled (disabled activities are filtered from the dummy main —
    DroidBench's InactiveActivity test), and which intents each can
    receive. *)

module X = Fd_xml.Xml

type data_spec = {
  d_scheme : string option;
  d_host : string option;
  d_mime : string option;  (** mimeType; ["image/*"] wildcards allowed *)
}

type intent_filter = {
  if_actions : string list;
  if_categories : string list;
  if_data : data_spec list;
}

type component = {
  comp_kind : Framework.component_kind;
  comp_class : string;  (** fully-qualified class name *)
  comp_enabled : bool;
  comp_exported : bool;
  comp_filters : intent_filter list;  (** one entry per <intent-filter> *)
}

type t = {
  package : string;
  components : component list;
  permissions : string list;  (** uses-permission entries *)
}

exception Malformed of string

(* resolve ".Relative" class names against the package *)
let resolve_class ~package name =
  if String.length name > 0 && name.[0] = '.' then package ^ name
  else if String.contains name '.' then name
  else if package = "" then name
  else package ^ "." ^ name

let bool_attr e name ~default =
  match X.attr e name with
  | Some "true" -> true
  | Some "false" -> false
  | Some v -> raise (Malformed (Printf.sprintf "attribute %s=%S is not a boolean" name v))
  | None -> default

let parse_filter e =
  let named tag =
    List.filter_map (fun n -> X.attr n "android:name") (X.children_named e tag)
  in
  {
    if_actions = named "action";
    if_categories = named "category";
    if_data =
      List.map
        (fun d ->
          {
            d_scheme = X.attr d "android:scheme";
            d_host = X.attr d "android:host";
            d_mime = X.attr d "android:mimeType";
          })
        (X.children_named e "data");
  }

let parse_component ~package kind e =
  let name =
    match X.attr e "android:name" with
    | Some n -> resolve_class ~package n
    | None -> raise (Malformed "component without android:name")
  in
  let filters = List.map parse_filter (X.children_named e "intent-filter") in
  (* Android 12 exported semantics: an explicit android:exported
     attribute wins; absent one, a component is exported iff it
     declares at least one intent filter (it wants to be found).  A
     filterless component without the attribute is NOT exported. *)
  let exported =
    match X.attr e "android:exported" with
    | Some _ -> bool_attr e "android:exported" ~default:false
    | None -> filters <> []
  in
  {
    comp_kind = kind;
    comp_class = name;
    comp_enabled = bool_attr e "android:enabled" ~default:true;
    comp_exported = exported;
    comp_filters = filters;
  }

(** [parse xml_source] parses a manifest document.
    @raise Malformed (or {!Fd_xml.Xml.Parse_error}) on bad input. *)
let parse src =
  let root = X.parse_string src in
  if X.tag root <> "manifest" then
    raise (Malformed "root element is not <manifest>");
  let package = X.attr_dflt root "package" ~default:"" in
  let apps = X.children_named root "application" in
  let components =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun (tag, kind) ->
            List.map (parse_component ~package kind) (X.children_named app tag))
          [
            ("activity", Framework.Activity);
            ("service", Framework.Service);
            ("receiver", Framework.Receiver);
            ("provider", Framework.Provider);
          ])
      apps
  in
  let permissions =
    List.filter_map
      (fun p -> X.attr p "android:name")
      (X.children_named root "uses-permission")
  in
  { package; components; permissions }

(** [parse_lenient xml_source] parses a manifest document, skipping
    malformed components instead of raising.  Returns the (possibly
    partial) manifest plus a message per skipped item; an unparsable
    document yields an empty manifest with one message. *)
let parse_lenient src =
  let empty = { package = ""; components = []; permissions = [] } in
  match X.parse_string src with
  | exception X.Parse_error (pos, msg) ->
      (empty, [ Printf.sprintf "manifest XML error at offset %d: %s" pos msg ])
  | root ->
      if X.tag root <> "manifest" then
        (empty, [ "root element is not <manifest>" ])
      else begin
        let skipped = ref [] in
        let package = X.attr_dflt root "package" ~default:"" in
        let apps = X.children_named root "application" in
        let components =
          List.concat_map
            (fun app ->
              List.concat_map
                (fun (tag, kind) ->
                  List.filter_map
                    (fun e ->
                      try Some (parse_component ~package kind e)
                      with Malformed msg ->
                        skipped :=
                          Printf.sprintf "skipped <%s>: %s" tag msg :: !skipped;
                        None)
                    (X.children_named app tag))
                [
                  ("activity", Framework.Activity);
                  ("service", Framework.Service);
                  ("receiver", Framework.Receiver);
                  ("provider", Framework.Provider);
                ])
            apps
        in
        let permissions =
          List.filter_map
            (fun p -> X.attr p "android:name")
            (X.children_named root "uses-permission")
        in
        ({ package; components; permissions }, List.rev !skipped)
      end

(** [enabled_components m] filters out components disabled in the
    manifest (they can never run, so the lifecycle model excludes
    them). *)
let enabled_components m = List.filter (fun c -> c.comp_enabled) m.components

(** [find m cls] is the component entry for class [cls], if any. *)
let find m cls = List.find_opt (fun c -> c.comp_class = cls) m.components

(* ------------------------------------------------------------------ *)
(* Intent resolution (Android's three filter tests)                    *)
(* ------------------------------------------------------------------ *)

type intent_desc = {
  it_class : string option;  (** explicit target component class *)
  it_action : string option;
  it_categories : string list;
  it_scheme : string option;
  it_host : string option;
  it_mime : string option;
}

let blank_intent =
  {
    it_class = None;
    it_action = None;
    it_categories = [];
    it_scheme = None;
    it_host = None;
    it_mime = None;
  }

(* mimeType matching with the "type/*" and "*/*" filter wildcards *)
let mime_matches ~filter ~intent =
  filter = intent || filter = "*/*"
  ||
  match String.index_opt filter '/' with
  | Some i when String.sub filter (i + 1) (String.length filter - i - 1) = "*"
    -> (
      let prefix = String.sub filter 0 (i + 1) in
      String.length intent > i + 1 && String.sub intent 0 (i + 1) = prefix)
  | _ -> false

(* the action test: the filter must list the intent's action; an
   actionless intent passes any filter that has at least one action *)
let action_test f (it : intent_desc) =
  match it.it_action with
  | Some a -> List.mem a f.if_actions
  | None -> f.if_actions <> []

(* the category test: every category of the intent must appear in the
   filter (an intent with no categories always passes) *)
let category_test f (it : intent_desc) =
  List.for_all (fun c -> List.mem c f.if_categories) it.it_categories

(* the data test: an intent with neither data URI nor type passes only
   filters that declare no data; otherwise some <data> spec must match
   every dimension the intent carries *)
let data_test f (it : intent_desc) =
  match (it.it_scheme, it.it_host, it.it_mime) with
  | None, None, None -> f.if_data = []
  | _ ->
      List.exists
        (fun d ->
          (match (it.it_scheme, d.d_scheme) with
          | Some s, Some fs -> s = fs
          | Some _, None -> false
          | None, _ -> true)
          && (match (it.it_host, d.d_host) with
             | Some h, Some fh -> h = fh
             | Some _, None -> false
             | None, _ -> true)
          &&
          match (it.it_mime, d.d_mime) with
          | Some m, Some fm -> mime_matches ~filter:fm ~intent:m
          | Some _, None -> false
          | None, Some _ -> false
          | None, None -> true)
        f.if_data

let filter_matches f it = action_test f it && category_test f it && data_test f it

(** [component_receives c it] — can component [c] receive intent [it]?
    Explicit targets match by class name alone (filters are bypassed);
    implicit intents must pass some declared filter. *)
let component_receives c (it : intent_desc) =
  c.comp_enabled
  &&
  match it.it_class with
  | Some cls -> cls = c.comp_class
  | None -> List.exists (fun f -> filter_matches f it) c.comp_filters

(** the framework methods that hand an intent to the system for
    delivery *)
let send_methods =
  [ "startActivity"; "startService"; "sendBroadcast"; "startActivityForResult" ]

(** [parse_uri s] reads ["scheme://host/path"] or ["scheme:rest"] as
    [(scheme, host)]; a string with no [':'] has neither. *)
let parse_uri s =
  match String.index_opt s ':' with
  | None -> (None, None)
  | Some i ->
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let host =
        if String.length rest >= 2 && String.sub rest 0 2 = "//" then
          let h = String.sub rest 2 (String.length rest - 2) in
          match String.index_opt h '/' with
          | Some j -> Some (String.sub h 0 j)
          | None -> Some h
        else None
      in
      (Some scheme, host)

(** [intent_descs ~classes ~actions ~categories ~uris ~mimes] reads an
    intent whose setters may have assigned any of the given values
    (the dynamic side passes at most one of each): one explicit
    description per class, plus the implicit readings.  Android's data
    test passes no filter for a data URI without a scheme, so such a
    URI yields no implicit reading. *)
let intent_descs ~classes ~actions ~categories ~uris ~mimes =
  let explicit =
    List.map (fun c -> { blank_intent with it_class = Some c }) classes
  in
  let data =
    List.fold_left
      (fun acc u ->
        match parse_uri u with
        | (Some _, _) as sh when not (List.mem sh acc) -> sh :: acc
        | _ -> acc)
      [] uris
  in
  let implicit =
    if uris <> [] && data = [] then []
    else
      let data_combos =
        match (data, mimes) with
        | [], [] -> [ (None, None, None) ]
        | ds, [] -> List.map (fun (s, h) -> (s, h, None)) ds
        | [], ms -> List.map (fun m -> (None, None, Some m)) ms
        | ds, ms ->
            List.concat_map
              (fun (s, h) -> List.map (fun m -> (s, h, Some m)) ms)
              ds
      in
      let with_data base =
        List.map
          (fun (s, h, m) ->
            { base with it_scheme = s; it_host = h; it_mime = m })
          data_combos
      in
      match actions with
      | [] ->
          if data <> [] || mimes <> [] then
            with_data { blank_intent with it_categories = categories }
          else []
      | acts ->
          List.concat_map
            (fun a ->
              with_data
                {
                  blank_intent with
                  it_action = Some a;
                  it_categories = categories;
                })
            acts
  in
  explicit @ implicit

(** [receivers ~apps ~sender_app descs] — the components, with their
    app, that an intent matching one of [descs] sent from [sender_app]
    can reach: within the sender's own app any matching component,
    across app boundaries only exported ones. *)
let receivers ~apps ~sender_app descs =
  List.concat_map
    (fun (app, m) ->
      List.filter_map
        (fun c ->
          if
            (sender_app = Some app || c.comp_exported)
            && List.exists (component_receives c) descs
          then Some (app, c)
          else None)
        m.components)
    apps
