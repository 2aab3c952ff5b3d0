(** Types and symbol signatures for the µJimple IR (the Jimple-level
    representation all analysis phases operate on). *)

type typ =
  | Void
  | Bool
  | Char
  | Int
  | Long
  | Float
  | Double
  | Ref of string  (** class or interface type, fully-qualified *)
  | Array of typ

val equal_typ : typ -> typ -> bool

val string_of_typ : typ -> string
(** Java source syntax: ["int"], ["java.lang.String"], ["byte[]"] *)

val typ_of_string : string -> typ
(** inverse of {!string_of_typ}; unknown names read as class types *)

type field_sig = {
  f_class : string;  (** declaring class *)
  f_name : string;
  f_type : typ;
}
(** global field identifier, written [class#name] in the textual
    format *)

val equal_field_sig : field_sig -> field_sig -> bool
(** by declaring class and name *)

val hash_field_sig : field_sig -> int
(** consistent with {!equal_field_sig}: hashes declaring class and
    name, both in full *)

val mk_field : ?ty:typ -> string -> string -> field_sig
val string_of_field_sig : field_sig -> string

type method_sig = {
  m_class : string;  (** declaring (or statically-resolved) class *)
  m_name : string;
  m_params : typ list;
  m_ret : typ;
}

val mk_method : ?params:typ list -> ?ret:typ -> string -> string -> method_sig

val string_of_method_sig : method_sig -> string
(** Jimple style: ["<a.B: void foo(int,java.lang.String)>"] *)

val object_class : string
(** ["java.lang.Object"] *)
