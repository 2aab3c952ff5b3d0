(** The flight recorder as a solver extension, always on: each solve
    clears the calling domain's ring and records its start, every
    worklist pop, call edge and end summary as lazy events (see
    {!Fd_obs.Ring.Flight}). *)

val make : Solver_ext.view -> Solver_ext.t
