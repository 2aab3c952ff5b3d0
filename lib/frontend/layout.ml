(** Layout XML parsing.

    Layout resources matter to the taint analysis for two reasons the
    paper highlights:

    - callbacks can be declared declaratively ([android:onClick]), so
      the code alone does not reveal all handlers (Listing 1's
      [sendMessage]), and
    - password fields ([android:inputType="textPassword"]) are
      *sources* whose sensitivity is invisible in code: only the
      layout knows that the view returned by [findViewById(R.id.pwd)]
      holds a password.

    Resource identifiers: aapt assigns dense integer ids; we mirror
    that by assigning ids deterministically in declaration order
    starting from [id_base] (per app), so benchmark code can reference
    controls through the same integers the parser derives. *)

module X = Fd_xml.Xml

type control = {
  ctl_id : int;  (** the generated [R.id.*] integer *)
  ctl_name : string;  (** the symbolic id, e.g. ["pwdString"] *)
  ctl_class : string;  (** widget class, e.g. ["android.widget.EditText"] *)
  ctl_layout : string;  (** layout file the control belongs to *)
  ctl_on_click : string option;  (** declaratively bound handler method *)
  ctl_password : bool;  (** input type marks the field sensitive *)
}

type t = {
  layouts : (string * int) list;  (** layout name -> R.layout id *)
  controls : control list;
}

(** Base values mirror aapt's resource-id numbering scheme. *)
let id_base = 0x7f080000

let layout_id_base = 0x7f030000

let password_input_types =
  [ "textPassword"; "textVisiblePassword"; "numberPassword"; "textWebPassword" ]

let strip_id_ref s =
  (* android:id="@+id/name" or "@id/name" *)
  let drop_prefix p s =
    let n = String.length p in
    if String.length s >= n && String.sub s 0 n = p then
      Some (String.sub s n (String.length s - n))
    else None
  in
  match drop_prefix "@+id/" s with
  | Some r -> Some r
  | None -> drop_prefix "@id/" s

let widget_class tag =
  if String.contains tag '.' then tag
  else
    let known =
      List.map fst Framework.widget_hierarchy
      |> List.filter_map (fun fq ->
             match String.rindex_opt fq '.' with
             | Some i ->
                 Some (String.sub fq (i + 1) (String.length fq - i - 1), fq)
             | None -> None)
    in
    match List.assoc_opt tag known with
    | Some fq -> fq
    | None -> "android.view.View"

let is_password e =
  match X.attr e "android:inputType" with
  | Some it ->
      (* inputType can be a |-separated union *)
      List.exists
        (fun part -> List.mem (String.trim part) password_input_types)
        (String.split_on_char '|' it)
  | None -> false

(** [parse named_sources] parses a list of [(layout_name, xml_source)]
    pairs, assigning resource ids in declaration order across all
    layouts (stable for a fixed input order). *)
let parse named_sources =
  let next_id = ref id_base in
  let next_layout = ref layout_id_base in
  let controls = ref [] in
  let layouts = ref [] in
  let rec walk layout_name e =
    (match X.attr e "android:id" with
    | Some raw -> (
        match strip_id_ref raw with
        | Some name ->
            let id = !next_id in
            incr next_id;
            controls :=
              {
                ctl_id = id;
                ctl_name = name;
                ctl_class = widget_class (X.tag e);
                ctl_layout = layout_name;
                ctl_on_click = X.attr e "android:onClick";
                ctl_password = is_password e;
              }
              :: !controls
        | None -> ())
    | None ->
        (* a control can declare onClick without an id *)
        (match X.attr e "android:onClick" with
        | Some _ ->
            let id = !next_id in
            incr next_id;
            controls :=
              {
                ctl_id = id;
                ctl_name = Printf.sprintf "anon%d" id;
                ctl_class = widget_class (X.tag e);
                ctl_layout = layout_name;
                ctl_on_click = X.attr e "android:onClick";
                ctl_password = is_password e;
              }
              :: !controls
        | None -> ()));
    List.iter (walk layout_name) (X.children e)
  in
  List.iter
    (fun (name, src) ->
      let root = X.parse_string src in
      let lid = !next_layout in
      incr next_layout;
      layouts := (name, lid) :: !layouts;
      walk name root)
    named_sources;
  { layouts = List.rev !layouts; controls = List.rev !controls }

(** [control_by_id t id] finds the control carrying resource id [id]. *)
let control_by_id t id = List.find_opt (fun c -> c.ctl_id = id) t.controls

(** [control_by_name t name] finds a control by symbolic id. *)
let control_by_name t name =
  List.find_opt (fun c -> c.ctl_name = name) t.controls

(** [layout_id t name] is the generated [R.layout.*] integer, or
    [None] when no layout [name] was parsed.  Returning an option (and
    never raising [Not_found]) lets lenient callers degrade an unknown
    layout reference to a diag instead of an escaping exception. *)
let layout_id t name = List.assoc_opt name t.layouts

(** [controls_in t layout] is the controls declared in [layout]. *)
let controls_in t layout =
  List.filter (fun c -> c.ctl_layout = layout) t.controls

(** [xml_callbacks t layout] is the declaratively declared onClick
    handler names in [layout]. *)
let xml_callbacks t layout =
  List.filter_map (fun c -> c.ctl_on_click) (controls_in t layout)
