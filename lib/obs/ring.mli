(** A solver's flight recorder: a fixed-size ring of its last events.

    Each event is an int triple — a kind tag and two interned ids — so
    recording one from a worklist loop costs three int stores and
    allocates nothing.  The solver that owns the ring ({!Fd_ifds.Ifds},
    {!Fd_core.Bidi}) renders the events to text only when a post-mortem
    is asked for: the budget stopped a solve, or a crash escaped it. *)

type t

val capacity : int
(** events a ring holds (16); older ones are overwritten *)

val create : unit -> t
(** an empty ring *)

val push : t -> int -> int -> int -> unit
(** [push r kind a b] appends one event, overwriting the oldest once
    full *)

val to_list : t -> (int * int * int) list
(** held events, oldest first *)

val render : t -> (int -> int -> int -> string) -> string
(** [render r f] is the held events rendered by [f], oldest first,
    joined with [" | "], with a ["(+k earlier)"] suffix when [k] older
    events were overwritten — the compact form embedded in diagnostics
    and crash messages *)
