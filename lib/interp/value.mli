(** Runtime values and taint labels for the µJimple interpreter (the
    TaintDroid-counterpart substrate). *)

type label = {
  lb_tag : string option;  (** ground-truth tag of the source statement *)
  lb_category : Fd_frontend.Sourcesink.category;
  lb_desc : string;
}

val label :
  ?tag:string -> category:Fd_frontend.Sourcesink.category -> string -> label

module Labels : Set.S with type elt = label

type obj_id = int

type value =
  | Vnull
  | Vint of int
  | Vstr of string
  | Vobj of obj_id
  | Varr of obj_id

type tvalue = { v : value; labels : Labels.t }
(** a value with its taint labels *)

val untainted : value -> tvalue
val with_labels : Labels.t -> value -> tvalue
val join : Labels.t -> Labels.t -> Labels.t
val is_tainted : tvalue -> bool

(** Heap objects carry a class, ordinary fields, and optionally a
    built-in payload used by the framework models. *)
type payload =
  | Pnone
  | Pbuffer of (string * Labels.t) ref  (** StringBuilder/StringBuffer *)
  | Plist of tvalue list ref  (** List/Set/Iterator backing store *)
  | Pmap of (string * tvalue) list ref  (** Map/Bundle/Intent extras *)
  | Pview of { view_name : string; mutable view_text : tvalue }
      (** a UI control with its current text *)

type hobj = {
  h_cls : string;
  h_fields : (string, tvalue) Hashtbl.t;
  h_payload : payload;
}

type harr = { a_elem : Fd_ir.Types.typ; a_cells : tvalue array }

(** A recorded leak: tainted data reached a sink at runtime. *)
type leak = {
  lk_labels : label list;
  lk_sink_tag : string option;
  lk_sink_cat : Fd_frontend.Sourcesink.category;
  lk_where : string;  (** "class.method" of the sink call *)
}
