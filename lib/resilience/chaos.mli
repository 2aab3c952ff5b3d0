(** Deterministic fault injection.

    A chaos harness seeded through {!Fd_util.Prng}: the same seed and
    rate produce the same fault schedule on every run and machine, so
    tests can prove that every degradation path is actually taken.

    Two fault families are offered:

    - {b input corruption} ({!corrupt_string}): with probability [p] a
      parser input (manifest, layout, µJimple unit) has a few bytes
      scrambled, driving the lenient-frontend recovery paths;
    - {b step faults} ({!fail_point}): with
      probability [p] a pipeline step raises {!Fault}, driving the
      exception barriers and the degradation ladder.

    Every injected fault bumps the [resilience.faults_injected]
    counter. *)

type t

exception Fault of string
(** the exception [fail_point] raises; carries the site label *)

val create : seed:int -> rate:float -> t
(** [create ~seed ~rate] makes a harness injecting faults with
    probability [rate] (clamped to [\[0, 1\]]) per opportunity. *)

val fail_point : t option -> string -> unit
(** [fail_point (Some c) site] raises [Fault site] with probability
    [rate]; [fail_point None _] is a no-op (the production path). *)

val corrupt_string : t -> string -> string
(** with probability [rate], scramble 1–8 bytes of the input (always
    at least one when it fires and the string is non-empty); otherwise
    return it unchanged *)

val faults_injected : t -> int
(** faults this harness has injected so far (corruptions + raises) *)
