(** The APK model.

    A real APK is a zip archive holding [AndroidManifest.xml], layout
    resources and Dalvik bytecode; FlowDroid unzips it and parses each
    artefact (Figure 4).  Our model is the same bundle with µJimple in
    place of Dalvik: a manifest XML document, named layout XML
    documents, and classes (either already-built IR or textual µJimple
    to be parsed).  [load_merged] runs the whole frontend over a set
    of apps — one app is a set of one: XML parsing, resource-id
    assignment, scene construction with the framework skeleton
    installed. *)

open Fd_ir
module M = Fd_obs.Metrics

let m_units = M.counter "frontend.jimple_units_parsed"
let m_skipped = M.counter "frontend.units_skipped"
let m_lint = M.counter "frontend.lint_issues"
let g_classes = M.gauge "frontend.classes"
let g_layouts = M.gauge "frontend.layouts"
let g_components = M.gauge "frontend.components"

type mode = [ `Strict | `Lenient ]

type t = {
  apk_name : string;
  apk_manifest : string;  (** manifest XML source *)
  apk_layouts : (string * string) list;  (** (layout name, XML source) *)
  apk_classes : Jclass.t list;
  apk_diags : Fd_resilience.Diag.t list;
      (** diagnostics collected while bundling (lenient parse skips) *)
}

type loaded = {
  name : string;
  manifest : Manifest.t;
  layout : Layout.t;
  scene : Scene.t;
  components : Manifest.component list;  (** enabled components only *)
  diags : Fd_resilience.Diag.t list;
      (** bundle diagnostics plus lenient-load skips; [[]] in strict
          mode *)
  app_of : string -> string option;
      (** which app of the load declared a class; the dummy main gives
          each app of a merged Scene its own method *)
}

exception Load_error of string

(** [make name ~manifest ?layouts classes] bundles an in-memory app. *)
let make name ~manifest ?(layouts = []) ?(diags = []) classes =
  { apk_name = name; apk_manifest = manifest; apk_layouts = layouts;
    apk_classes = classes; apk_diags = diags }

(** [make_text name ~manifest ?layouts sources] bundles an app whose
    code is given as textual µJimple compilation units.  In lenient
    mode an unparsable unit is dropped with a diagnostic instead of
    aborting the bundle. *)
let make_text ?(mode = `Strict) name ~manifest ?(layouts = []) ?(diags = [])
    sources =
  let collected = ref [] in
  let failed ~line kind msg =
    match mode with
    | `Strict ->
        raise
          (Load_error
             (Printf.sprintf "%s: %s error at line %d: %s" name kind line msg))
    | `Lenient ->
        M.incr m_skipped;
        collected :=
          Fd_resilience.Diag.make ~line ~file:name
            (Printf.sprintf "skipped unit: %s error: %s" kind msg)
          :: !collected;
        []
  in
  let lint issues =
    match mode with
    | `Strict -> ()
    | `Lenient ->
        List.iter
          (fun (i : Lint.issue) ->
            M.incr m_lint;
            collected :=
              Fd_resilience.Diag.make ?line:i.Lint.li_line ~file:name
                ("lint: " ^ Lint.string_of_issue i)
              :: !collected)
          issues
  in
  let classes =
    List.concat_map
      (fun src ->
        M.incr m_units;
        if mode = `Lenient then lint (Lint.lint_source ~file:name src);
        match Parser.parse_string src with
        | cs -> cs
        | exception Parser.Parse_error (line, msg) -> failed ~line "parse" msg
        | exception Lexer.Lex_error (line, msg) -> failed ~line "lex" msg)
      sources
  in
  if mode = `Lenient then lint (Lint.lint_classes classes);
  make name ~manifest ~layouts ~diags:(diags @ List.rev !collected) classes

(** [of_dir dir] reads an app from disk: [AndroidManifest.xml], every
    [res/layout/*.xml] (alphabetical), and every [*.jimple] file
    (recursively, alphabetical).  All I/O failures surface as
    {!Load_error} carrying the offending path — never a bare
    [Sys_error].  In lenient mode an unreadable file is skipped with a
    diagnostic (the manifest stays mandatory). *)
let of_dir ?(mode = `Strict) dir =
  let io_diags = ref [] in
  let read_file path =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      raise (Load_error (Printf.sprintf "%s: I/O error: %s" path msg))
  in
  let read_opt path =
    match read_file path with
    | s -> Some s
    | exception Load_error msg when mode = `Lenient ->
        io_diags := Fd_resilience.Diag.make ~file:path msg :: !io_diags;
        None
  in
  try
    let manifest_path = Filename.concat dir "AndroidManifest.xml" in
    if not (Sys.file_exists manifest_path) then
      raise (Load_error (Printf.sprintf "%s: no AndroidManifest.xml" dir));
    let manifest = read_file manifest_path in
    let layout_dir = Filename.concat (Filename.concat dir "res") "layout" in
    let layouts =
      if Sys.file_exists layout_dir && Sys.is_directory layout_dir then
        Sys.readdir layout_dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".xml")
        |> List.sort compare
        |> List.filter_map (fun f ->
               match read_opt (Filename.concat layout_dir f) with
               | Some src -> Some (Filename.remove_extension f, src)
               | None -> None)
      else []
    in
    let rec jimple_files d =
      Sys.readdir d |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f ->
             let p = Filename.concat d f in
             if Sys.is_directory p then jimple_files p
             else if Filename.check_suffix f ".jimple" then [ p ]
             else [])
    in
    let sources = List.filter_map read_opt (jimple_files dir) in
    make_text ~mode (Filename.basename dir) ~manifest ~layouts
      ~diags:(List.rev !io_diags) sources
  with Sys_error msg ->
    raise (Load_error (Printf.sprintf "%s: I/O error: %s" dir msg))

(** [to_dir dir apk] writes [apk] as the layout {!of_dir} reads:
    [AndroidManifest.xml], one [res/layout/NAME.xml] per layout and one
    [.jimple] file per class, creating [dir] and its parents. *)
let to_dir dir apk =
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  let write path contents =
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc contents)
  in
  mkdir_p dir;
  write (Filename.concat dir "AndroidManifest.xml") apk.apk_manifest;
  let layout_dir = Filename.concat (Filename.concat dir "res") "layout" in
  if apk.apk_layouts <> [] then mkdir_p layout_dir;
  List.iter
    (fun (name, src) -> write (Filename.concat layout_dir (name ^ ".xml")) src)
    apk.apk_layouts;
  List.iter
    (fun (c : Jclass.t) ->
      write
        (Filename.concat dir (c.Jclass.c_name ^ ".jimple"))
        (Pretty.class_to_string c))
    apk.apk_classes

(* Ok () / Error msg, without the apk-name prefix *)
let component_check scene (c : Manifest.component) =
  match Scene.find_class scene c.Manifest.comp_class with
  | None ->
      Error
        (Printf.sprintf "manifest declares missing class %s"
           c.Manifest.comp_class)
  | Some _ -> (
      match Framework.component_kind_of scene c.Manifest.comp_class with
      | Some k when k = c.Manifest.comp_kind -> Ok ()
      | Some k ->
          Error
            (Printf.sprintf "%s declared as %s but extends the %s base class"
               c.Manifest.comp_class
               (Framework.string_of_component_kind c.Manifest.comp_kind)
               (Framework.string_of_component_kind k))
      | None ->
          Error
            (Printf.sprintf
               "%s declared as %s but extends no component base class"
               c.Manifest.comp_class
               (Framework.string_of_component_kind c.Manifest.comp_kind)))

let parse_manifest ~mode ~name ~diag src =
  match mode with
  | `Strict -> (
      try Manifest.parse src with
      | Manifest.Malformed msg ->
          raise (Load_error (Printf.sprintf "%s: bad manifest: %s" name msg))
      | Fd_xml.Xml.Parse_error (pos, msg) ->
          raise
            (Load_error
               (Printf.sprintf "%s: manifest XML error at offset %d: %s" name
                  pos msg)))
  | `Lenient ->
      let m, skipped = Manifest.parse_lenient src in
      List.iter
        (fun msg -> diag ~file:(name ^ "/AndroidManifest.xml") msg)
        skipped;
      m

type merged = {
  m_loaded : loaded;
      (** one Scene holding every app's classes, one component list
          spanning all apps (the co-installed-device model) *)
  m_apps : (string * Manifest.t) list;  (** per-app manifests, load order *)
  m_app_of : string -> string option;
      (** which app contributed a class (for the exported-across-apps
          resolution gate); the same function as [m_loaded.app_of] *)
}

(** [load_merged apks] runs the frontend over an app set: parses the
    manifests and layouts, builds one Scene holding the framework
    skeleton plus every app's classes, and checks that every enabled
    manifest component resolves to a class with the right framework
    superclass.  One app is a set of one — the co-installed-device
    model of inter-app (collusion) analysis is the same load with more
    apps.  The merged [loaded] of several apps carries a synthetic
    manifest concatenating every app's components; the per-app
    manifests survive in [m_apps] so the ICC resolver can gate
    cross-app links on exported components.  Layout names clashing
    across apps keep the first app's file.

    In the default strict mode any inconsistency raises {!Load_error}.
    In lenient mode the offending artefact — a malformed manifest
    component, an unparsable layout, a duplicate class, a component
    whose class is missing or has the wrong superclass — is skipped
    with a structured diagnostic, in that order, and the rest is
    loaded. *)
let load_merged ?(mode = `Strict) apks =
  if apks = [] then raise (Load_error "load_merged: empty app list");
  Fd_obs.Trace.with_span "frontend.load" @@ fun () ->
  let diags = ref [] in
  let diag ?line ~file msg =
    M.incr m_skipped;
    diags := Fd_resilience.Diag.make ?line ~file msg :: !diags
  in
  let parsed =
    List.map
      (fun apk ->
        ( apk,
          parse_manifest ~mode ~name:apk.apk_name
            ~diag:(fun ~file msg -> diag ~file msg)
            apk.apk_manifest ))
      apks
  in
  let name = String.concat "+" (List.map (fun a -> a.apk_name) apks) in
  let layout_file apk lname = apk.apk_name ^ "/res/layout/" ^ lname ^ ".xml" in
  let layout_srcs =
    List.fold_left
      (fun acc apk ->
        List.fold_left
          (fun acc ((lname, _) as l) ->
            if List.exists (fun (_, (n, _)) -> n = lname) acc then begin
              diag ~file:(layout_file apk lname)
                "layout name clashes across apps; first app wins";
              acc
            end
            else (apk, l) :: acc)
          acc apk.apk_layouts)
      [] apks
    |> List.rev
  in
  let valid_srcs =
    List.filter_map
      (fun (apk, ((lname, src) as l)) ->
        match mode with
        | `Strict -> Some l
        | `Lenient -> (
            (* pre-validate each layout so one bad file only drops itself *)
            match Fd_xml.Xml.parse_string src with
            | _ -> Some l
            | exception Fd_xml.Xml.Parse_error (pos, msg) ->
                diag ~file:(layout_file apk lname)
                  (Printf.sprintf "skipped layout: XML error at offset %d: %s"
                     pos msg);
                None))
      layout_srcs
  in
  let layout =
    try Layout.parse valid_srcs
    with Fd_xml.Xml.Parse_error (pos, msg) ->
      raise
        (Load_error
           (Printf.sprintf "%s: layout XML error at offset %d: %s" name pos msg))
  in
  let scene = Framework.fresh_scene () in
  let class_app : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun apk ->
      List.iter
        (fun (c : Jclass.t) ->
          match Scene.add_class scene c with
          | () -> Hashtbl.replace class_app c.Jclass.c_name apk.apk_name
          | exception Scene.Duplicate_class n -> (
              match mode with
              | `Strict ->
                  raise
                    (Load_error
                       (Printf.sprintf "%s: duplicate class %s" apk.apk_name n))
              | `Lenient ->
                  diag ~file:apk.apk_name
                    (Printf.sprintf "skipped duplicate class %s" n)))
        apk.apk_classes)
    apks;
  let components =
    List.concat_map
      (fun (apk, m) ->
        List.filter
          (fun (c : Manifest.component) ->
            match component_check scene c with
            | Ok () -> true
            | Error msg -> (
                match mode with
                | `Strict -> raise (Load_error (apk.apk_name ^ ": " ^ msg))
                | `Lenient ->
                    diag ~file:(apk.apk_name ^ "/AndroidManifest.xml")
                      ("skipped component: " ^ msg);
                    false))
          (Manifest.enabled_components m))
      parsed
  in
  let manifest =
    match parsed with
    | [ (_, m) ] -> m
    | _ ->
        {
          Manifest.package = "";
          Manifest.components =
            List.concat_map
              (fun (_, (m : Manifest.t)) -> m.Manifest.components)
              parsed;
          Manifest.permissions =
            List.sort_uniq compare
              (List.concat_map
                 (fun (_, (m : Manifest.t)) -> m.Manifest.permissions)
                 parsed);
        }
  in
  M.set_int g_classes
    (List.fold_left (fun n a -> n + List.length a.apk_classes) 0 apks);
  M.set_int g_layouts (List.length layout_srcs);
  M.set_int g_components (List.length components);
  let app_of cls = Hashtbl.find_opt class_app cls in
  {
    m_loaded =
      {
        name;
        manifest;
        layout;
        scene;
        components;
        diags = List.concat_map (fun a -> a.apk_diags) apks @ List.rev !diags;
        app_of;
      };
    m_apps = List.map (fun (a, m) -> (a.apk_name, m)) parsed;
    m_app_of = app_of;
  }

(** [app_name loaded cls] is the app declaring [cls], or the load's own
    name for a class no app declared. *)
let app_name loaded cls = Option.value (loaded.app_of cls) ~default:loaded.name

(** [load apk] is the load of the app set [[apk]]. *)
let load ?mode apk = (load_merged ?mode [ apk ]).m_loaded

(** [layout_id loaded name] is the [R.layout] integer for a layout
    file.
    @raise Load_error when the layout is unknown. *)
let layout_id loaded name =
  match Layout.layout_id loaded.layout name with
  | Some id -> id
  | None ->
      raise (Load_error (Printf.sprintf "%s: unknown layout %S" loaded.name name))

(* ------------------------------------------------------------------ *)
(* Manifest-construction helpers for benchmark apps                    *)
(* ------------------------------------------------------------------ *)

(** [simple_manifest ~package comps] renders a minimal manifest
    declaring [comps] as [(kind, class, extra-attrs)] with the first
    activity as the launcher. *)
let simple_manifest ~package comps =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n<manifest package=\"%s\">\n  <application>\n"
       package);
  let first_activity = ref true in
  List.iter
    (fun (kind, cls, attrs) ->
      let tag = Framework.string_of_component_kind kind in
      let attrs_s =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf " %s=\"%s\"" k v) attrs)
      in
      if kind = Framework.Activity && !first_activity then begin
        first_activity := false;
        Buffer.add_string buf
          (Printf.sprintf
             "    <%s android:name=\"%s\"%s>\n\
             \      <intent-filter>\n\
             \        <action android:name=\"android.intent.action.MAIN\"/>\n\
             \        <category android:name=\"android.intent.category.LAUNCHER\"/>\n\
             \      </intent-filter>\n\
             \    </%s>\n"
             tag cls attrs_s tag)
      end
      else
        Buffer.add_string buf
          (Printf.sprintf "    <%s android:name=\"%s\"%s/>\n" tag cls attrs_s))
    comps;
  Buffer.add_string buf "  </application>\n</manifest>\n";
  Buffer.contents buf
