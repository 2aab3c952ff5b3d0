(** Call-graph construction: CHA and RTA, computed on the fly from a
    set of entry points (only reachable code contributes edges). *)

open Fd_ir

type algorithm =
  | Cha  (** class hierarchy analysis: every override in the cone *)
  | Rta
      (** rapid type analysis: receivers restricted to classes
          instantiated in reachable code (joint fixed point) *)

type call_edge = { ce_caller : Mkey.t; ce_stmt : int; ce_target : Mkey.t }

type t

val build :
  Scene.t ->
  entry:Mkey.t list ->
  ?algorithm:algorithm ->
  ?clinit_first_use:bool ->
  ?reflection:bool ->
  unit ->
  t
(** [build scene ~entry ()] computes the call graph reachable from
    [entry] (default {!Cha}).  [clinit_first_use] adds first-use-site
    [<clinit>] edges and [reflection] adds constant-string-resolved
    reflective call edges (both precision passes, default off); the
    extra edges live in separate tables so {!callees} — and every
    flags-off consumer — is unaffected. *)

val callees : t -> Mkey.t -> int -> Mkey.t list
(** [callees cg caller stmt_idx] — resolved targets of one call site;
    empty when the call resolves only into the framework. *)

val clinit_callees : t -> Mkey.t -> int -> Mkey.t list
(** the [<clinit>] methods a statement triggers under first-use
    placement; empty unless built with [~clinit_first_use:true] *)

val refl_callees : t -> Mkey.t -> int -> Mkey.t list
(** constant-string-resolved targets of a [Method.invoke] site; empty
    unless built with [~reflection:true] *)

val clinit_sites : t -> Mkey.t -> (Mkey.t * int) list
(** every (caller, stmt) first-use site triggering the given
    [<clinit>] method *)

val callers : t -> Mkey.t -> (Mkey.t * int) list
(** the call sites that may invoke a method *)

val is_reachable : t -> Mkey.t -> bool
val reachable_methods : t -> Mkey.t list

val body_of : t -> Mkey.t -> Body.t
(** the body of a method (cached).  @raise Not_found for bodyless
    methods. *)

val edge_count : t -> int
(** number of distinct (site, target) edges — a size metric for the
    benchmarks *)

val cg_scene : t -> Scene.t
(** the scene the graph was built over *)

val static_use_classes : Fd_ir.Stmt.t -> string list
(** the classes whose static members one statement touches — the JVM's
    [<clinit>] trigger events (JLS 12.4.1).  Shared with
    {!Ondemand}'s reverse indices so targeted slicing over-approximates
    exactly the edges first-use clinit placement can add. *)
