(** A [Domain]-based worker pool for embarrassingly-parallel per-app
    loops (the evaluation tables and corpus runs).

    Design constraints, in order:

    + {b determinism}: [map ~jobs f xs] returns exactly
      [List.map f xs] — results are stored by input index, so the
      output (and every table rendered from it) is bit-identical at
      any job count.  Each work item must therefore be independent:
      the solver stays sequential {e per app}; only the per-app loop
      fans out.
    + {b no idle coordinator}: the calling domain is worker 0, so
      [~jobs:1] costs nothing and [~jobs:n] spawns [n - 1] domains.
    + {b dynamic schedule}: items are claimed from an atomic counter,
      so a slow app does not stall a statically-assigned neighbour.

    Per-batch metrics are published under [pool.*] ([pool.batches],
    [pool.tasks], [pool.tasks.d<i>] per worker, [pool.jobs]). *)

exception Worker_failed of exn
(** a worker died; the original exception is attached.  Raised
    uniformly whether the failing worker was a spawned domain or the
    calling domain itself, and only after {e every} spawned domain has
    been joined — a throwing [f] never leaks domains.  When several
    workers fail, the first in worker order wins.  Per-app crash
    isolation should happen {e inside} [f] (the eval loops run each
    app under [Fd_resilience.Barrier]), so this escaping indicates a
    harness bug, not an app failure. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs], computed by [jobs] domains.
    [jobs <= 1] runs inline with zero overhead. *)
