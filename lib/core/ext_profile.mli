(** The per-method profiler as a solver extension
    ({!Config.t.profile}): attributes every path edge and every
    worklist pop, with its wall time, to the method of its node in
    {!Fd_obs.Profile}. *)

val make : Solver_ext.view -> Solver_ext.t
