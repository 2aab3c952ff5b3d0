(** Provenance as a solver extension ({!Config.t.provenance}): records
    how each (node, fact) pair entered the solver and turns a sink
    report into the finding's witness.  Also publishes the
    [mem.provenance.bytes] gauge. *)

val make : Solver_ext.view -> Solver_ext.t
(** a fresh edge store; interns the zero fact (for witness trimming) *)

val off : Solver_ext.t
(** provenance off: only zeroes the gauge at the end of each solve *)
