(** Library "shortcut" rules (taint wrappers) and native-call models
    (Section 5: "Defining shortcuts", "Native Calls").

    A rule maps a (class, method) pair to taint-propagation effects,
    applied along the call-to-return edge {e instead of} analysing a
    callee (rules are exclusive).  Rules attach to the declared
    receiver class or any supertype.

    Line format ('%' comments):
    {v <class> <method> : tgt<-src (, tgt<-src)* v}
    with [tgt] in [ret]/[recv]/[argN] and [src] in
    [recv]/[args]/[argN]; an empty effect list marks the method as
    modelled-with-no-propagation (e.g. [String.length]). *)

type target = To_ret | To_recv | To_arg of int
type origin = From_recv | From_any_arg | From_arg of int

type effect = { eff_to : target; eff_from : origin }
(** "[eff_to] becomes tainted if [eff_from] is tainted" *)

type t

val create : (string * string * effect list) list -> t

val lookup : t -> cls:string -> mname:string -> effect list option
(** exact (class, method) lookup; callers also try the receiver's
    supertypes *)

val mem : t -> cls:string -> mname:string -> bool

val digest : t -> string
(** stable MD5 hex of a canonical, sorted rendering of the rule set —
    independent of insertion order; part of the persistent summary
    store's analysis-config key *)

exception Bad_rule of int * string

val parse_string : string -> (string * string * effect list) list
(** @raise Bad_rule with the 1-based line number *)

val of_string : string -> t

val default_wrappers : unit -> t
val default_natives : unit -> t
