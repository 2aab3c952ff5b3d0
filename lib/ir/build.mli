(** Builder DSL for µJimple programs — how the benchmark suites
    (DroidBench, SecuriBench-µ, the paper's listings) are authored: an
    imperative per-method statement buffer with symbolic labels,
    interned locals and an automatic trailing [return]. *)

open Types
open Stmt

type mb
(** a method body under construction *)

exception Build_error of string

(* ---------------- immediates ---------------- *)

val i : int -> imm
val s : string -> imm
val nul : imm
val v : local -> imm

val fld : ?ty:typ -> string -> string -> field_sig
(** [fld cls name] builds a field signature *)

(* ---------------- locals & parameters ---------------- *)

val local : mb -> ?ty:typ -> string -> local
(** interned: equal names yield the same local *)

val this : mb -> local
(** binds the receiver via an [@this] identity (idempotent) *)

val param : mb -> int -> ?ty:typ -> ?tag:string -> string -> local
(** binds parameter [n] via an identity statement; [tag] marks it as a
    ground-truth source observation point *)

(* ---------------- straight-line statements ---------------- *)

val move : mb -> ?tag:string -> local -> local -> unit
val const : mb -> ?tag:string -> local -> imm -> unit
val load : mb -> ?tag:string -> local -> local -> field_sig -> unit
val store : mb -> ?tag:string -> local -> field_sig -> imm -> unit
val loadstatic : mb -> ?tag:string -> local -> field_sig -> unit
val storestatic : mb -> ?tag:string -> field_sig -> imm -> unit
val aload : mb -> ?tag:string -> local -> local -> imm -> unit
val astore : mb -> ?tag:string -> local -> imm -> imm -> unit
val binop : mb -> ?tag:string -> local -> string -> imm -> imm -> unit
val cast : mb -> ?tag:string -> local -> typ -> imm -> unit
val newobj : mb -> ?tag:string -> local -> string -> unit
val newarray : mb -> ?tag:string -> local -> typ -> imm -> unit

(* ---------------- calls ---------------- *)

val vcall :
  mb -> ?tag:string -> ?ret:local -> local -> string -> string -> imm list ->
  unit
(** [vcall m recv cls name args] — virtual call, result optionally
    bound to [ret] *)

val scall :
  mb -> ?tag:string -> ?ret:local -> string -> string -> imm list -> unit
(** static call *)

val spcall :
  mb -> ?tag:string -> ?ret:local -> local -> string -> string -> imm list ->
  unit
(** special call (constructors, super) *)

val newc : mb -> ?tag:string -> local -> string -> imm list -> unit
(** allocation plus constructor invocation *)

(* ---------------- control flow ---------------- *)

val label : mb -> string -> unit
(** attaches a label to the next emitted statement *)

val ifgoto : mb -> ?tag:string -> imm -> cmpop -> imm -> string -> unit
val goto : mb -> ?tag:string -> string -> unit
val ret : mb -> unit
val retv : mb -> ?tag:string -> imm -> unit
val throw : mb -> ?tag:string -> imm -> unit
val nop : mb -> unit

(* ---------------- methods and classes ---------------- *)

type mspec = string -> Jclass.jmethod
(** a method awaiting its declaring class name *)

val meth :
  string -> ?static:bool -> ?params:typ list -> ?ret:typ -> (mb -> unit) ->
  mspec
(** [meth name build] declares a method whose body [build] emits; a
    trailing [return] is appended when control can fall off the end.
    @raise Build_error on undefined or duplicate labels. *)

val abstract_meth : string -> ?params:typ list -> ?ret:typ -> mspec
val native_meth : string -> ?static:bool -> ?params:typ list -> ?ret:typ -> mspec

val cls :
  string -> ?super:string -> ?interfaces:string list ->
  ?fields:(string * typ) list -> mspec list -> Jclass.t
(** assembles a class from method specs *)

val iface : string -> ?extends:string list -> mspec list -> Jclass.t
