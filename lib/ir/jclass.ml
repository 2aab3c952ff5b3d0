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

let mk_method ?(static = false) ?(abstract = false) ?(native = false) ?body
    jm_sig =
  { jm_sig; jm_static = static; jm_abstract = abstract; jm_native = native;
    jm_body = body }

(** [has_body m] holds when [m] carries analysable code. *)
let has_body m = Option.is_some m.jm_body

type t = {
  c_name : string;
  c_super : string option;  (** [None] only for [java.lang.Object] *)
  c_interfaces : string list;
  c_is_interface : bool;
  c_fields : field_sig list;
  c_methods : jmethod list;
  c_phantom : bool;
      (** a library/framework class known only by name and hierarchy
          position; its methods have no bodies (Soot's phantom refs) *)
}

let mk ?(super = Some Types.object_class) ?(interfaces = [])
    ?(is_interface = false) ?(fields = []) ?(methods = []) ?(phantom = false)
    c_name =
  let super = if c_name = Types.object_class then None else super in
  {
    c_name;
    c_super = super;
    c_interfaces = interfaces;
    c_is_interface = is_interface;
    c_fields = fields;
    c_methods = methods;
    c_phantom = phantom;
  }

(** [find_method c name params] looks up a method declared directly on
    [c] by sub-signature.  Matching is by name and arity: declared
    parameter types at call sites are frequently approximated (the
    textual frontend reads them as [java.lang.Object]), and µJimple
    programs do not use same-arity overloading. *)
let find_method c name params =
  List.find_opt
    (fun m ->
      String.equal m.jm_sig.m_name name
      && List.length m.jm_sig.m_params = List.length params)
    c.c_methods

(** [find_method_named c name] looks up by name alone, used when the
    arity is not statically known (textual frontend). *)
let find_method_named c name =
  List.find_opt (fun m -> String.equal m.jm_sig.m_name name) c.c_methods
