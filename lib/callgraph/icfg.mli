(** The inter-procedural control-flow graph (ICFG).

    The program view both IFDS solvers traverse: nodes are
    (method, statement-index) pairs; intra-procedural edges come from
    {!Fd_ir.Body}, inter-procedural edges from the {!Callgraph}. *)

open Fd_ir

type node = { n_method : Mkey.t; n_idx : int }

val equal_node : node -> node -> bool
val compare_node : node -> node -> int
val hash_node : node -> int

val string_of_node : node -> string
(** e.g. ["a.B.m/2@7"]. *)

module Node_tbl : Hashtbl.S with type key = node

type t = private {
  cg : Callgraph.t;
  ic_succs : node list Node_tbl.t;  (** internal memo cache *)
  ic_stmts : Stmt.t Node_tbl.t;  (** internal memo cache *)
}
(** construct with {!create}; the [cg] field is readable (solvers drop
    down to raw {!Callgraph} queries), the caches are internal *)

val create : Callgraph.t -> t

val body : t -> Mkey.t -> Body.t
(** [body g m] is the body of a reachable method.
    @raise Not_found otherwise. *)

val stmt : t -> node -> Stmt.t
(** [stmt g n] is the statement at node [n]. *)

val succs : t -> node -> node list
(** intra-procedural successor nodes *)

val preds : t -> node -> node list
(** intra-procedural predecessor nodes (walked by the backward alias
    analysis) *)

val start_node : t -> Mkey.t -> node
(** the entry node of a method (statement 0) *)

val exit_nodes : t -> Mkey.t -> node list
(** the return/throw nodes of a method *)

val callees : t -> node -> Mkey.t list
(** analysable targets of a call node; [[]] when the call resolves
    only into the framework *)

val callers : t -> Mkey.t -> node list
(** the call nodes that may invoke a method *)

val clinit_callees : t -> node -> Mkey.t list
(** the [<clinit>] methods a node triggers under first-use placement;
    empty when the precision pass is off *)

val refl_callees : t -> node -> Mkey.t list
(** constant-string-resolved reflective targets of an invoke node;
    empty when the precision pass is off *)

val clinit_sites : t -> Mkey.t -> node list
(** every node whose first-use edge triggers the given [<clinit>] *)

val is_call : t -> node -> bool
val invoke : t -> node -> Stmt.invoke option
val is_exit : t -> node -> bool
