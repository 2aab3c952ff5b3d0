(** Crash isolation for batch runners.

    [protect] runs one app's analysis under an exception barrier so a
    hostile input can never take the whole batch down: any exception —
    including {!Chaos.Fault} and [Stack_overflow] — is converted into
    an [Error (Crashed msg)] outcome and counted under
    [resilience.crashes_caught].  When a solver handed a post-mortem
    over with the exception ({!reraise}), the message ends with it as
    [" [flight: ...]"]. *)

val protect :
  label:string -> (unit -> 'a) -> ('a, Outcome.t) result
(** [protect ~label f] is [Ok (f ())], or [Error (Crashed msg)] when
    [f] raises; [label] prefixes the message so per-app reports name
    the offender. *)

val protect_with_retry :
  label:string -> (unit -> 'a) -> retry:(unit -> 'a) -> ('a, Outcome.t) result
(** [protect_with_retry ~label f ~retry] runs [f] under the barrier
    and, when it crashes, gives [retry] (typically the same analysis
    under a degraded config) one more chance before giving up.  A
    successful retry bumps [resilience.retries]. *)

val reraise : post_mortem:string -> exn -> Printexc.raw_backtrace -> 'a
(** [reraise ~post_mortem exn bt] re-raises [exn] with its original
    backtrace [bt] and hands [post_mortem] (the solver's last events)
    to the barrier that catches it.  Only a crash of that same
    exception value carries it, and only once. *)
