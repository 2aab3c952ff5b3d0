(** AndroidManifest.xml parsing.

    The manifest declares the app's components; the analysis reads it
    to know which classes are entry-point components, whether they are
    enabled (disabled activities are filtered from the dummy main),
    and which intents each can receive. *)

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
      (** Android 12 semantics: an explicit [android:exported]
          attribute wins; absent one, exported iff the component
          declares at least one intent filter *)
  comp_filters : intent_filter list;  (** one entry per <intent-filter> *)
}

type t = {
  package : string;
  components : component list;
  permissions : string list;  (** uses-permission entries *)
}

exception Malformed of string

val parse : string -> t
(** [parse xml_source] parses a manifest document; dot-relative
    component names are resolved against the package.
    @raise Malformed (or {!Fd_xml.Xml.Parse_error}) on bad input. *)

val parse_lenient : string -> t * string list
(** [parse_lenient xml_source] parses a manifest, skipping malformed
    components instead of raising; returns the partial manifest plus
    one message per skipped item.  An unparsable document yields an
    empty manifest and a single message.  Never raises. *)

val enabled_components : t -> component list
(** components not disabled in the manifest (only these can run) *)

val find : t -> string -> component option
(** the component entry for a class, if any *)

(** An abstract intent for resolution: what the sender set (or, for
    the static resolver, what the constant analysis proved it sets). *)
type intent_desc = {
  it_class : string option;  (** explicit target component class *)
  it_action : string option;
  it_categories : string list;
  it_scheme : string option;
  it_host : string option;
  it_mime : string option;
}

val blank_intent : intent_desc
(** no target, no action, no categories, no data *)

val component_receives : component -> intent_desc -> bool
(** can this component receive the intent?  Explicit class targets
    bypass the filters; implicit intents must pass one. *)

val send_methods : string list
(** the framework methods that hand an intent to the system for
    delivery ([startActivity], [startService], [sendBroadcast],
    [startActivityForResult]) *)

val intent_descs :
  classes:string list ->
  actions:string list ->
  categories:string list ->
  uris:string list ->
  mimes:string list ->
  intent_desc list
(** [intent_descs ~classes ~actions ~categories ~uris ~mimes] describes
    an intent whose setters may have assigned any of the given values
    (the static constant analysis passes every value it proved
    possible, a concrete run at most one of each): one explicit
    description per class, plus the implicit readings — each action
    (or none, when there is data) with each data URI and MIME type.  A
    URI is read as ["scheme://host/path"] or ["scheme:rest"]; one
    without a scheme passes no filter's data test, so it yields no
    implicit reading. *)

val receivers :
  apps:(string * t) list ->
  sender_app:string option ->
  intent_desc list ->
  (string * component) list
(** [receivers ~apps ~sender_app descs] — the components, with their
    app, that an intent matching one of [descs] sent from
    [sender_app] can reach: within the sender's own app any matching
    component ({!component_receives}), across app boundaries only
    exported ones.  In [apps] order, then manifest order. *)
