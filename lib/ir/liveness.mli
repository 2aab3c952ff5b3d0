(** Live locals per statement: a backward may-analysis over a body's
    CFG ({!Body.succs}).

    A local is live-in at a statement when some path from it reads
    the local before redefining it.  A statement reads the locals
    {!Body.iter_uses} visits and defines [x] only in [x = …]
    ([Assign (Llocal x, _)]).  Identity statements are transparent:
    they neither read nor define, so a parameter local read later is
    live from statement 0 on, before the identity that binds it.

    The sets are bit sets over the locals some statement reads, one
    word per statement when there are at most [Sys.int_size] of them.
    The per-statement read and define sets that build them are
    dropped once the fixpoint is done. *)

type t

val analyze : Body.t -> t
(** [analyze b] is every statement's live-in set. *)

val live_in : t -> int -> Stmt.local -> bool
(** [live_in t i x] holds when [x] is live-in at statement [i]: some
    path from [i] reads [x] before redefining it.  A local no
    statement reads is never live. *)
