(** The typed termination state of an analysis run.

    Every run of the solver pipeline ends in exactly one of these
    states; the lone [st_budget_exhausted] bool of earlier versions is
    subsumed.  Outcomes are ordered by "badness": {!worst} lets a
    batch runner fold per-app outcomes into a run-level verdict. *)

type t =
  | Complete  (** fixed point reached within every budget *)
  | Budget_exhausted  (** the propagation (path-edge) cap was hit *)
  | Deadline_exceeded  (** the wall-clock deadline fired mid-solve *)
  | Cancelled  (** cooperative cancellation was requested *)
  | Crashed of string  (** an exception escaped; message attached *)

val is_complete : t -> bool

val equal : t -> t -> bool
(** structural equality; [Crashed] messages are ignored. *)

val worst : t -> t -> t
(** the higher-severity of the two *)

val to_string : t -> string
(** stable, machine-greppable rendering ([complete],
    [budget-exhausted], [deadline-exceeded], [cancelled],
    [crashed: msg]) *)

val tally : (t * bool) list -> (string * int) list
(** [tally runs] counts runs per termination state, sorted by key.  A
    run is its outcome and whether a degraded retry produced it; its
    key is {!to_string} with every [Crashed] message folded into
    ["crashed"], plus ["+degraded"] for a degraded run. *)
