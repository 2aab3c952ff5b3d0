(** Runtime values and taint labels for the µJimple interpreter.

    This library is the repository's TaintDroid counterpart (related
    work, Section 7): a *dynamic* taint analysis that concretely
    executes µJimple programs, propagating per-value taint labels —
    precise where the static analysis over-approximates (array
    indices, map keys, strong updates) but only as complete as the
    event coverage that drives it. *)

type label = {
  lb_tag : string option;  (** ground-truth tag of the source statement *)
  lb_category : Fd_frontend.Sourcesink.category;
  lb_desc : string;
}

let label ?tag ~category desc = { lb_tag = tag; lb_category = category; lb_desc = desc }

module Labels = Set.Make (struct
  type t = label

  let compare = compare
end)

type obj_id = int

(** Concrete values.  Strings are immutable values; objects and arrays
    live on the heap. *)
type value =
  | Vnull
  | Vint of int
  | Vstr of string
  | Vobj of obj_id
  | Varr of obj_id

type tvalue = { v : value; labels : Labels.t }
(** a value with its taint labels *)

let untainted v = { v; labels = Labels.empty }
let with_labels labels v = { v; labels }
let join a b = Labels.union a b
let is_tainted tv = not (Labels.is_empty tv.labels)

(** Heap objects carry a class, ordinary fields, and optionally a
    built-in payload used by the framework models (string builders,
    collections, intents, UI views). *)
type payload =
  | Pnone
  | Pbuffer of (string * Labels.t) ref  (** StringBuilder/StringBuffer *)
  | Plist of tvalue list ref  (** List/Set backing store *)
  | Pmap of (string * tvalue) list ref  (** Map/Bundle/Intent extras, string-keyed *)
  | Pview of { view_name : string; mutable view_text : tvalue }
      (** a UI control with its current text *)

type hobj = {
  h_cls : string;
  h_fields : (string, tvalue) Hashtbl.t;  (** keyed by field name *)
  h_payload : payload;
}

type harr = { a_elem : Fd_ir.Types.typ; a_cells : tvalue array }

(** A recorded leak: tainted data reached a sink at runtime. *)
type leak = {
  lk_labels : label list;
  lk_sink_tag : string option;
  lk_sink_cat : Fd_frontend.Sourcesink.category;
  lk_where : string;  (** method.name@idx *)
}
