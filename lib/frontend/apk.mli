(** The APK model.

    A real APK is a zip archive holding [AndroidManifest.xml], layout
    resources and Dalvik bytecode; this model is the same bundle with
    µJimple in place of Dalvik.  {!load_merged} runs the whole frontend
    of Figure 4's first stage over a set of apps: XML parsing,
    resource-id assignment, scene construction with the framework
    skeleton installed, and component-consistency checks.  A one-app
    load ({!load}) is a merged load of one. *)

open Fd_ir

type mode = [ `Strict | `Lenient ]
(** [`Strict] (the default) raises {!Load_error} on the first
    malformed artefact; [`Lenient] skips the offending component,
    layout or compilation unit, records a {!Fd_resilience.Diag.t},
    and analyses the rest. *)

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

val make :
  string -> manifest:string -> ?layouts:(string * string) list ->
  ?diags:Fd_resilience.Diag.t list -> Jclass.t list -> t
(** [make name ~manifest ?layouts classes] bundles an in-memory app. *)

val make_text :
  ?mode:mode -> string -> manifest:string ->
  ?layouts:(string * string) list -> ?diags:Fd_resilience.Diag.t list ->
  string list -> t
(** [make_text name ~manifest ?layouts sources] bundles an app whose
    code is textual µJimple compilation units.  In lenient mode an
    unparsable unit is dropped with a diagnostic carrying the line
    number.
    @raise Load_error on parse errors in strict mode (with the line
    number). *)

val of_dir : ?mode:mode -> string -> t
(** [of_dir dir] reads an app from disk: [AndroidManifest.xml], every
    [res/layout/*.xml] and every [*.jimple] file (recursively,
    alphabetical).  All I/O failures — nonexistent or unreadable
    directory, unreadable file — surface as {!Load_error} carrying
    the offending path, never a bare [Sys_error].  In lenient mode an
    unreadable or unparsable file is skipped with a diagnostic; the
    manifest stays mandatory.
    @raise Load_error when the manifest is missing, the directory is
    unreadable, or code is malformed (strict mode). *)

val to_dir : string -> t -> unit
(** [to_dir dir apk] writes [apk] in the layout {!of_dir} reads:
    [AndroidManifest.xml], [res/layout/NAME.xml] per layout and one
    [.jimple] file per class, creating [dir] and its parents.
    @raise Sys_error on I/O failure. *)

type merged = {
  m_loaded : loaded;
      (** the merged view: one scene holding every app's classes, one
          component list spanning all apps; for one app, its own
          manifest, for several a synthetic one concatenating all
          components *)
  m_apps : (string * Manifest.t) list;  (** per-app manifests, load order *)
  m_app_of : string -> string option;
      (** which app declared a class (for the cross-app exported gate);
          the same function as [m_loaded.app_of] *)
}

val load_merged : ?mode:mode -> t list -> merged
(** [load_merged apks] runs the frontend over an app set and loads it
    into one Scene, validating that every enabled manifest component
    resolves to a class with the right framework superclass.  One app
    is a set of one; several apps are the inter-app setting where
    intents cross APK boundaries.  Classes must be globally unique;
    layouts merge first-wins.  The ICC resolver consumes [m_apps] and
    [m_app_of] to apply the exported gate between apps.

    In lenient mode a malformed manifest component, an unparsable
    layout (in any app of the set), a duplicate class, or a component
    failing validation is skipped with a diagnostic
    ([m_loaded.diags], in that order) and the rest is loaded.
    @raise Load_error on an empty list or inconsistencies (strict
    mode). *)

val load : ?mode:mode -> t -> loaded
(** [load apk] is [(load_merged ?mode [apk]).m_loaded]. *)

val app_name : loaded -> string -> string
(** [app_name loaded cls] is the app declaring [cls] ([loaded.app_of]),
    or [loaded.name] for a class no app declared. *)

val layout_id : loaded -> string -> int
(** the [R.layout] integer for a layout file name *)

val simple_manifest :
  package:string ->
  (Framework.component_kind * string * (string * string) list) list ->
  string
(** [simple_manifest ~package comps] renders a minimal manifest
    declaring [comps] as [(kind, class, extra-attributes)], with the
    first activity as the MAIN/LAUNCHER entry. *)
