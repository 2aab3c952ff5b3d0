(** Framework models for the µJimple interpreter: concrete behaviour
    of the Android/JRE classes the benchmarks use (telephony and
    location sources, UI views with per-control text, intents and
    bundles, strings and string builders, collections, [arraycopy],
    and the monitor-detection probe of the Section 7 evasion demo). *)

val install : Interp.state -> unit
(** wire the model into an interpreter state *)
