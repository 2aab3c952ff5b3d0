(** A small, dependency-free XML parser for the Android resource
    dialect: prolog, comments, namespaced attributes, text, CDATA, the
    five predefined entities and ASCII character references.  DTDs and
    other processing instructions are not supported. *)

type t =
  | Element of string * (string * string) list * t list
      (** [Element (tag, attrs, children)] *)
  | Text of string

exception Parse_error of int * string
(** byte offset of the failure and a description *)

val parse_string : string -> t
(** [parse_string s] parses one document and returns its root element.
    @raise Parse_error on malformed input. *)

val tag : t -> string
(** @raise Invalid_argument on a text node *)

val attr : t -> string -> string option
val attr_dflt : t -> string -> default:string -> string

val children : t -> t list
(** child {e elements} (text nodes skipped) *)

val children_named : t -> string -> t list

val descendants_named : t -> string -> t list
(** whole-subtree search (excluding the node itself), document order *)

val text : t -> string
(** concatenated direct text children *)

val to_string : ?indent:int -> ?prolog:string -> t -> string
(** serialisation, after [prolog] (default empty) verbatim;
    [parse_string (to_string e)] equals [e] up to insignificant
    whitespace *)
