(** Classes and methods of the µJimple IR. *)

open Types

type jmethod = {
  jm_sig : method_sig;
  jm_static : bool;
  jm_abstract : bool;
  jm_native : bool;
  jm_body : Body.t option;
      (** [None] for abstract, native and phantom (library) methods *)
}

val mk_method :
  ?static:bool -> ?abstract:bool -> ?native:bool -> ?body:Body.t ->
  method_sig -> jmethod

val has_body : jmethod -> bool

type t = {
  c_name : string;
  c_super : string option;  (** [None] only for [java.lang.Object] *)
  c_interfaces : string list;
  c_is_interface : bool;
  c_fields : field_sig list;
  c_methods : jmethod list;
  c_phantom : bool;
      (** a library/framework class known only by name and hierarchy
          position (Soot's phantom refs) *)
}

val mk :
  ?super:string option -> ?interfaces:string list -> ?is_interface:bool ->
  ?fields:field_sig list -> ?methods:jmethod list -> ?phantom:bool ->
  string -> t

val find_method : t -> string -> typ list -> jmethod option
(** declared directly on the class; matching by name and arity (see
    DESIGN.md) *)

val find_method_named : t -> string -> jmethod option
