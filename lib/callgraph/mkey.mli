(** Method keys: the identity of a method in call graphs and solvers —
    declaring class, name and arity (µJimple does not use same-arity
    overloading; see DESIGN.md). *)

open Fd_ir

type t = { mk_class : string; mk_name : string; mk_arity : int }

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val of_sig : Types.method_sig -> t
val of_method : Jclass.t -> Jclass.jmethod -> t
(** keys a concrete method by its declaring class *)

val to_string : t -> string
(** e.g. ["a.B.m/2"] *)

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
