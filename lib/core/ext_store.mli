(** The persistent summary store as a solver extension (DESIGN.md §13).

    Serves store hits for eligible callee contexts, records every sink
    report under its context (before the engine's global dedup, so a
    stored context is self-contained), and after a complete solve hands
    each freshly solved eligible context to {!Summary.hooks.h_persist}
    with the reports of its whole context subtree.  Contexts served
    from the store are never persisted again. *)

val make : Summary.hooks -> Solver_ext.view -> Solver_ext.t
