(** Fixed-size event rings and the flight recorder.

    The generic ring buffer keeps the last [capacity] pushed values,
    overwriting the oldest on wrap-around; it is single-writer and
    allocation-free on the push path.

    {!Flight} is the solver flight recorder built on it: every domain
    owns a private ring of {e lazy} events (closures rendered only at
    dump time), so the solvers can record worklist pops, edge
    insertions and budget ticks at full speed.  When a run ends badly —
    the budget expires, the degradation ladder steps down, a crash
    barrier catches an exception — the last-N-events context is dumped
    into the structured diagnostics. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] is an empty ring holding at most [capacity]
    values.  @raise Invalid_argument when [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** append a value, overwriting the oldest once full *)

val length : 'a t -> int
(** values currently held ([min pushed capacity]) *)

val pushed : 'a t -> int
(** total values ever pushed (monotonic, survives wrap-around) *)

val to_list : 'a t -> 'a list
(** held values, oldest first *)

val clear : 'a t -> unit

(** The per-domain solver flight recorder. *)
module Flight : sig
  val record : (unit -> string) -> unit
  (** record a lazy event in the calling domain's ring; the closure is
      evaluated only if the ring is dumped, so hot loops pay one
      allocation and one store per event *)

  val mark : string -> unit
  (** record an already-rendered event (for cheap, rare markers such
      as solve start/stop) *)

  val dump : ?limit:int -> unit -> string list
  (** render the calling domain's held events, oldest first; [limit]
      keeps only the most recent [limit] events *)

  val dump_line : ?limit:int -> unit -> string
  (** the last [limit] (default 12) events joined with [" | "], with a
      ["(+k earlier)"] suffix when older events were elided — the
      compact form embedded in diagnostics and crash messages *)

  val clear : unit -> unit
  (** drop the calling domain's events (done at solve start so a dump
      never mixes two runs) *)

  val recorded : unit -> int
  (** total events recorded in the calling domain since the last
      {!clear} *)
end
