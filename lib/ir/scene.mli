(** The scene: the global class table and class-hierarchy queries
    (mirrors Soot's [Scene]).

    Classes referenced but never defined (framework classes beyond the
    modelled skeleton, third-party libraries) are treated as
    {e phantom}: they exist in the hierarchy directly below
    [java.lang.Object] unless a skeleton entry says otherwise, and
    their methods have no bodies. *)

type t

exception Duplicate_class of string

val create : unit -> t

val copy : t -> t
(** an independent scene with the same classes, subtype index and memo
    entries; mutations of either copy never affect the other (used to
    stamp out per-app scenes from the framework-skeleton template, so
    no app starts with a cold index) *)

val add_class : t -> Jclass.t -> unit
(** @raise Duplicate_class if a class of the same name exists. *)

val add_or_replace : t -> Jclass.t -> unit
(** registers a class, replacing any previous definition — used to
    upgrade a phantom skeleton entry or regenerate the dummy main *)

val find_class : t -> string -> Jclass.t option
val mem : t -> string -> bool

val resolve : t -> string -> Jclass.t
(** like {!find_class}, materialising a phantom class on a miss *)

val all_classes : t -> Jclass.t list
(** every registered class, unspecified order *)

val application_classes : t -> Jclass.t list
(** non-phantom classes: the code under analysis *)

val superclasses : t -> string -> string list
(** the chain of strict superclasses, nearest first, ending at
    [java.lang.Object]; cycles in malformed input are cut off *)

val supertypes : t -> string -> string list
(** all strict and non-strict supertypes: the class itself, its
    superclasses, and all transitively implemented interfaces *)

val is_subtype : t -> string -> string -> bool
(** [is_subtype t sub sup] — reflexive; everything is a subtype of
    [java.lang.Object] *)

val subtypes : t -> string -> Jclass.t list
(** every registered class that is a subtype of the given one: the
    class cone CHA enumerates dispatch targets over.  The cone is a
    depth-first walk of the scene's direct-subtype index from the given
    type (itself first, if registered; children most recently linked
    first), so its order is deterministic for a given insertion
    sequence and never depends on the class table's layout.  The
    [java.lang.Object] cone is every class ({!all_classes}). *)

val resolve_concrete :
  t -> string -> string * Types.typ list -> (Jclass.t * Jclass.jmethod) option
(** [resolve_concrete t cls (name, params)] walks the superclass chain
    from [cls] to the nearest concrete declaration — runtime virtual
    dispatch for an exact receiver class.  Matching is by name and
    arity (see DESIGN.md).  A superclass cycle in malformed input ends
    the walk with [None]. *)

val resolve_concrete_uncached :
  t -> string -> string * Types.typ list -> (Jclass.t * Jclass.jmethod) option
(** {!resolve_concrete} without memoising the answer, for one-off
    probes that nothing asks again: a memoised answer stays in the
    scene for the rest of the analysis *)

val resolve_concrete_named :
  t -> string -> string -> (Jclass.t * Jclass.jmethod) option
(** {!resolve_concrete} matching on the method name only *)

val dispatch_targets :
  t ->
  static_type:string ->
  string * Types.typ list ->
  (Jclass.t * Jclass.jmethod) list
(** CHA: the concrete methods a virtual call with the given declared
    receiver type may dispatch to, deduplicated *)

val methods_with_bodies : t -> (Jclass.t * Jclass.jmethod) list
(** every (class, method) pair carrying code: the analysable
    universe *)
