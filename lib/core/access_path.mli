(** Access paths (Section 4.1 of the paper).

    An access path is [x.f.g] where [x] is a local (or a static field
    for globals) and [f], [g] are fields, with a user-customisable
    maximal length (5 by default).  An access path implicitly
    describes all objects reachable through it — matching is prefix
    matching, and truncation at the maximal length only widens the
    abstraction. *)

open Fd_ir

type base =
  | Bloc of Stmt.local  (** rooted at a method-local *)
  | Bstatic of Types.field_sig  (** rooted at a static field *)

type t = {
  base : base;
  fields : Types.field_sig list;  (** outermost access first *)
}

val equal : t -> t -> bool

val hash : t -> int
(** a fold over the base and {e every} field segment — paths that
    differ only deep in the chain hash apart (consistent with
    {!equal}) *)

val to_string : t -> string
(** e.g. ["x.f.g"] or ["<C#f>.g"] for static roots. *)

val of_local : Stmt.local -> t
(** [of_local l] is the length-0 path [l]. *)

val of_field : Stmt.local -> Types.field_sig -> t
(** [of_field l f] is [l.f]. *)

val of_static : Types.field_sig -> t
(** [of_static f] is the static-field root. *)

val length : t -> int
(** [length t] is the number of field accesses. *)

val truncate : k:int -> t -> t
(** [truncate ~k t] drops fields beyond the maximal length [k]; by the
    implicit-suffix semantics this only widens the described set. *)

val is_static : t -> bool
(** [is_static t] holds for static-field-rooted paths. *)

val has_prefix : prefix:t -> t -> bool
(** [has_prefix ~prefix t]: does [t] extend (or equal) [prefix]? *)

val covers : taint:t -> t -> bool
(** [covers ~taint t]: a taint on [taint] makes the value at [t]
    tainted (implicit-suffix semantics). *)

val reaches : taint:t -> t -> bool
(** [reaches ~taint t]: tainted data is reachable from the value at
    [t] — true when either is a prefix of the other. *)

val rebase : k:int -> from:t -> to_:t -> t -> t option
(** [rebase ~k ~from ~to_ t] rewrites [t] by replacing its prefix
    [from] with [to_], truncating to [k] — the core operation of every
    assignment flow function.  [None] when [from] is not a prefix of
    [t]. *)

val index_field : int -> Types.field_sig
(** [index_field i] — the [<idx:i>] pseudo-field denoting the [i]-th
    cell of an array under the constant-index precision pass; treated
    like any other field by k-limiting and prefix matching. *)

val is_index_field : Types.field_sig -> bool
(** recognises {!index_field} pseudo-fields (reserved declaring class
    ["<array>"]) *)
