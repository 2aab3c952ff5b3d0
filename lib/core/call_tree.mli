(** What a method's call tree can do: the gates {!Bidi} puts on the
    facts that enter a callee.

    A call tree is a method closed over its ICFG callees (and, under
    the reflection pass, its constant-string reflective callees).  It
    records the static fields the tree reads or writes, and whether
    the tree generates a taint under the zero fact.  Each engine keeps
    one {!t}; a method's tree is computed on the first query, one
    strongly connected component at a time ({!Fd_callgraph.Scc}), so
    every member of a recursive cycle gets the cycle's union. *)

open Fd_ir
open Fd_callgraph

type t

val create : cg:Callgraph.t -> mgr:Srcsink_mgr.t -> config:Config.t -> t
(** [create ~cg ~mgr ~config] is an empty memo over [cg]'s edges.  The
    config's clinit and reflection passes decide which edges a tree
    follows, and its [context_injection] decides {!zero_enters}. *)

val has_call_source : Srcsink_mgr.t -> Body.t -> Stmt.t -> bool
(** [has_call_source mgr body s] holds when {!call_source} is [Some _],
    without building its description. *)

val call_source :
  Srcsink_mgr.t ->
  Body.t ->
  Stmt.t ->
  (Stmt.local * Fd_frontend.Sourcesink.category * string) option
(** [call_source mgr body s] is the taint the call statement [s]
    generates under the zero fact, as the local it is assigned to, its
    category and a description: a return-value source, or a
    [findViewById] whose id names a password control. *)

val touches_static : t -> Mkey.t -> Types.field_sig -> bool
(** [touches_static t m f] holds when [m]'s call tree can read or
    write the static field [f].  A first-use [<clinit>] edge under the
    clinit pass makes it hold for every field: the initializer's exit
    relays every static fact to all the class's first-use sites. *)

val zero_enters : t -> Mkey.t -> bool
(** [zero_enters t m] holds when the zero fact enters [m] (an
    analysable callee; the caller checks that): when its call tree can
    generate a taint, through a source call, a parameter source or
    (under the clinit pass) a first-use [<clinit>] edge.  Under the
    naive handover ([context_injection] off) aliases run in their
    method's zero context and return to callers only through that
    context's incoming calls, so it then holds for every method. *)
