(** Method bodies and their intra-procedural control-flow graphs.
    Successor and predecessor maps are computed once at creation — the
    backward alias analysis walks predecessors as often as the forward
    analysis walks successors. *)

open Stmt

type t = {
  locals : local list;
  stmts : Stmt.t array;
  succs : int list array;
  preds : int list array;
}

exception Malformed of string

val create : locals:local list -> Stmt.t list -> t
(** [create ~locals stmts] re-indexes the statements and computes the
    CFG.
    @raise Malformed if a branch target is out of range or control can
    fall off the end. *)

val length : t -> int
val stmt : t -> int -> Stmt.t
val succs : t -> int -> int list
val preds : t -> int -> int list
val iter : t -> (Stmt.t -> unit) -> unit
val fold : t -> (Stmt.t -> 'a -> 'a) -> 'a -> 'a

val forward :
  t ->
  entry:'a ->
  transfer:(Stmt.t -> 'a -> 'a) ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  'a option array
(** [forward b ~entry ~transfer ~join ~equal] runs a forward dataflow
    to fixpoint and returns each statement's in-state, [None] where no
    path from the entry reaches.  Statement 0 starts at [entry]; a
    FIFO worklist takes a statement, applies [transfer] to its
    in-state, and hands the result to each successor: a successor's
    first state is that result, later ones [join prev out], and the
    successor is requeued only when its state changes by [equal]. *)

val exit_stmts : t -> int list
(** indices of all return/throw statements *)

val find_tagged : t -> string -> Stmt.t list
(** statements carrying a ground-truth marker *)

val param_locals : t -> local option * (int * local) list
(** the [@this] local (if bound) and the parameter-index→local map
    from the identity statements *)

val iter_uses : (local -> unit) -> Stmt.t -> unit
(** [iter_uses f s] applies [f] to every local the statement reads, in
    any operand position: receivers, arguments, branch conditions, the
    base and index of a field or array store, and returned or thrown
    values (a local read twice is passed twice).  Identity statements
    read nothing. *)

val uses_local : Stmt.t -> local -> bool
(** does the statement read the local in any of the positions
    {!iter_uses} visits? *)
