(** Layout XML parsing.

    Layouts matter to the taint analysis for two reasons the paper
    highlights: callbacks can be declared declaratively
    ([android:onClick]), and password fields
    ([android:inputType="textPassword"]) are sources whose sensitivity
    is invisible in code.

    Resource identifiers mirror aapt: dense integers assigned in
    declaration order from {!id_base} / {!layout_id_base}, so
    benchmark code references controls through the same integers the
    parser derives. *)

type control = {
  ctl_id : int;  (** the generated [R.id.*] integer *)
  ctl_name : string;  (** the symbolic id, e.g. ["pwdString"] *)
  ctl_class : string;  (** widget class, e.g. ["android.widget.EditText"] *)
  ctl_layout : string;  (** layout file the control belongs to *)
  ctl_on_click : string option;  (** declaratively bound handler method *)
  ctl_password : bool;  (** the input type marks the field sensitive *)
}

type t = {
  layouts : (string * int) list;  (** layout name -> R.layout id *)
  controls : control list;
}

val id_base : int
(** 0x7f080000, aapt's id numbering base *)

val layout_id_base : int
(** 0x7f030000 *)

val parse : (string * string) list -> t
(** [parse [(name, xml); ...]] parses layout files, assigning resource
    ids in declaration order across all layouts (stable for a fixed
    input order).
    @raise Fd_xml.Xml.Parse_error on malformed XML. *)

val control_by_id : t -> int -> control option
val control_by_name : t -> string -> control option

val layout_id : t -> string -> int option
(** [None] for unknown layout names; never raises, so lenient callers
    can turn a dangling layout reference into a diag *)

val xml_callbacks : t -> string -> string list
(** the declaratively bound onClick handler names in one layout *)
