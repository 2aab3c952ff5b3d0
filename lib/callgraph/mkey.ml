(** Method keys: the identity of a method in call graphs and solvers.

    A method is identified by its *declaring* class, its name, and its
    arity (µJimple does not use same-arity overloading; see
    DESIGN.md). *)

open Fd_ir

type t = { mk_class : string; mk_name : string; mk_arity : int }

let equal a b =
  a == b
  || (String.equal a.mk_class b.mk_class
     && String.equal a.mk_name b.mk_name
     && a.mk_arity = b.mk_arity)

let compare a b =
  match String.compare a.mk_class b.mk_class with
  | 0 -> (
      match String.compare a.mk_name b.mk_name with
      | 0 -> Int.compare a.mk_arity b.mk_arity
      | c -> c)
  | c -> c

(* fold the three components explicitly: the tuple version hashed the
   strings through [Hashtbl.hash]'s node budget, colliding on long
   common-prefix class names *)
let hash a =
  Fd_util.Intern.combine
    (Fd_util.Intern.combine (Hashtbl.hash a.mk_class) (Hashtbl.hash a.mk_name))
    a.mk_arity

(** [of_sig s] keys a method signature. *)
let of_sig (s : Types.method_sig) =
  { mk_class = s.Types.m_class; mk_name = s.Types.m_name;
    mk_arity = List.length s.Types.m_params }

(** [of_method cls m] keys a concrete method declared on [cls]. *)
let of_method (cls : Jclass.t) (m : Jclass.jmethod) =
  {
    mk_class = cls.Jclass.c_name;
    mk_name = m.Jclass.jm_sig.Types.m_name;
    mk_arity = List.length m.Jclass.jm_sig.Types.m_params;
  }

let to_string k = Printf.sprintf "%s.%s/%d" k.mk_class k.mk_name k.mk_arity

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
