(** The scene: the global class table and class-hierarchy queries.

    Mirrors Soot's [Scene].  Classes referenced but never defined
    (framework classes beyond the modelled skeleton, third-party
    libraries) are treated as *phantom*: they exist in the hierarchy
    directly below [java.lang.Object] unless a skeleton entry says
    otherwise, and their methods have no bodies. *)

open Jclass

type t = {
  classes : (string, Jclass.t) Hashtbl.t;
  sc_children : (string, string list) Hashtbl.t;
      (** the direct-subtype index: a type name to the registered
          classes naming it as [c_super] or in [c_interfaces], most
          recently linked first (a class naming a parent twice appears
          twice); the parent need not be registered, and no binding is
          empty.  [insert] keeps it exact. *)
  (* memoised hierarchy queries — call graphs are rebuilt several
     times per app (callback discovery iterates), and every virtual
     site asks for its dispatch targets each build; [insert] drops the
     entries a class-table mutation can change *)
  sc_supertypes : (string, string list) Hashtbl.t;
  sc_dispatch :
    (string * string * Types.typ list, (Jclass.t * Jclass.jmethod) list)
    Hashtbl.t;
  sc_concrete :
    (string * string * Types.typ list, (Jclass.t * Jclass.jmethod) option)
    Hashtbl.t;
}

exception Duplicate_class of string

let create () =
  {
    classes = Hashtbl.create 97;
    sc_children = Hashtbl.create 97;
    sc_supertypes = Hashtbl.create 97;
    sc_dispatch = Hashtbl.create 97;
    sc_concrete = Hashtbl.create 97;
  }

(** [copy t] is an independent scene with the same classes, index and
    memo entries: mutations of either copy never affect the other.
    Every table maps to immutable values ([Jclass.t], name lists,
    answers), so shallow copies suffice — the framework-skeleton
    template hands each app its subtype index this way. *)
let copy t =
  {
    classes = Hashtbl.copy t.classes;
    sc_children = Hashtbl.copy t.sc_children;
    sc_supertypes = Hashtbl.copy t.sc_supertypes;
    sc_dispatch = Hashtbl.copy t.sc_dispatch;
    sc_concrete = Hashtbl.copy t.sc_concrete;
  }

let invalidate t =
  Hashtbl.reset t.sc_supertypes;
  Hashtbl.reset t.sc_dispatch;
  Hashtbl.reset t.sc_concrete

let iter_parents f (c : Jclass.t) =
  Option.iter f c.c_super;
  List.iter f c.c_interfaces

(* linking is one cons per parent: the skeleton template and every app
   load link each class once, while only a replacement (the dummy
   main's regeneration) unlinks *)
let link t (c : Jclass.t) =
  iter_parents
    (fun p ->
      let kids = Option.value (Hashtbl.find_opt t.sc_children p) ~default:[] in
      Hashtbl.replace t.sc_children p (c.c_name :: kids))
    c

let unlink t (c : Jclass.t) =
  iter_parents
    (fun p ->
      match Hashtbl.find_opt t.sc_children p with
      | None -> ()
      | Some kids -> (
          match List.filter (fun k -> not (String.equal k c.c_name)) kids with
          | [] -> Hashtbl.remove t.sc_children p
          | kids -> Hashtbl.replace t.sc_children p kids))
    c

(** [find_class t name] is the registered class, if any. *)
let find_class t name = Hashtbl.find_opt t.classes name

(** [mem t name] holds when [name] is registered. *)
let mem t name = Hashtbl.mem t.classes name

(** [all_classes t] lists every registered class (unspecified order). *)
let all_classes t = Hashtbl.fold (fun _ c acc -> c :: acc) t.classes []

(** [application_classes t] lists non-phantom classes: the code under
    analysis. *)
let application_classes t =
  List.filter (fun c -> not c.c_phantom) (all_classes t)

(** [superclasses t name] is the chain of strict superclasses of
    [name], nearest first, ending at [java.lang.Object].  Cycles in
    malformed input are cut off rather than looping. *)
let superclasses t name =
  let rec go seen acc name =
    match find_class t name with
    | Some { c_super = Some s; _ } when not (List.mem s seen) ->
        go (s :: seen) (s :: acc) s
    | Some _ -> acc
    | None ->
        if name = Types.object_class || List.mem Types.object_class seen then
          acc
        else Types.object_class :: acc
  in
  List.rev (go [ name ] [] name)

let rec interfaces_closure t seen name =
  if List.mem name !seen then ()
  else begin
    seen := name :: !seen;
    match find_class t name with
    | None -> ()
    | Some c ->
        List.iter (interfaces_closure t seen) c.c_interfaces;
        (match c.c_super with
        | Some s -> interfaces_closure t seen s
        | None -> ())
  end

(** [supertypes t name] is all strict and non-strict supertypes of
    [name]: the class itself, its superclasses, and all transitively
    implemented interfaces. *)
let supertypes t name =
  match Hashtbl.find_opt t.sc_supertypes name with
  | Some sups -> sups
  | None ->
      let seen = ref [] in
      interfaces_closure t seen name;
      let sups =
        if List.mem Types.object_class !seen then !seen
        else Types.object_class :: !seen
      in
      Hashtbl.replace t.sc_supertypes name sups;
      sups

(* [insert t c] registers [c], updating the subtype index (a replaced
   class's old parents lose it, the new parents gain it) and dropping
   only the memo entries the insertion can change:
   - with every cache empty (the bulk load of an app) there is nothing
     to drop;
   - a fresh class that no registered class names as its super or
     interface changes only the queries about itself (its supertypes
     and concrete resolutions) and the cones of its own supertypes (the
     dispatch targets keyed on one of them); every other entry was
     computed without ever looking the name up;
   - anything else (a replacement, a phantom upgrade, a class some
     registered class names) invalidates every cache.
   A cone walks the index from its root, so a kept entry's cone is the
   one a cold query gives: the new class links only below its own
   supertypes. *)
let insert t (c : Jclass.t) =
  let name = c.c_name in
  let caches_empty =
    Hashtbl.length t.sc_supertypes = 0
    && Hashtbl.length t.sc_dispatch = 0
    && Hashtbl.length t.sc_concrete = 0
  in
  let old = Hashtbl.find_opt t.classes name in
  let fresh_unnamed = old = None && not (Hashtbl.mem t.sc_children name) in
  Option.iter (unlink t) old;
  Hashtbl.replace t.classes name c;
  link t c;
  if not caches_empty then
    if fresh_unnamed then begin
      Hashtbl.remove t.sc_supertypes name;
      let sups = supertypes t name in
      let stale keep tbl =
        Hashtbl.fold (fun k _ acc -> if keep k then acc else k :: acc) tbl []
        |> List.iter (Hashtbl.remove tbl)
      in
      stale (fun (st, _, _) -> not (List.mem st sups)) t.sc_dispatch;
      stale (fun (cls, _, _) -> cls <> name) t.sc_concrete
    end
    else invalidate t

(** [add_class t c] registers [c].
    @raise Duplicate_class if a class of the same name exists. *)
let add_class t (c : Jclass.t) =
  if Hashtbl.mem t.classes c.c_name then raise (Duplicate_class c.c_name);
  insert t c

(** [add_or_replace t c] registers [c], replacing any previous
    definition — used to upgrade a phantom skeleton entry to a real
    class. *)
let add_or_replace = insert

(** [resolve t name] is like {!find_class} but materialises a phantom
    class (extending [java.lang.Object]) on a miss. *)
let resolve t name =
  match Hashtbl.find_opt t.classes name with
  | Some c -> c
  | None ->
      let c = Jclass.mk ~phantom:true name in
      insert t c;
      c

(** [is_subtype t sub sup] decides the subtype relation, treating every
    class as a subtype of [java.lang.Object] and of itself. *)
let is_subtype t sub sup =
  String.equal sub sup
  || String.equal sup Types.object_class
  || List.mem sup (supertypes t sub)

(** [subtypes t name] is every *registered* class that is a subtype of
    [name] (including [name] itself if registered).  This is the
    class-cone CHA uses to enumerate dispatch targets.  It walks the
    subtype index depth-first from [name], children most recently
    linked first; the [java.lang.Object] cone is every class. *)
let subtypes t name =
  if String.equal name Types.object_class then all_classes t
  else begin
    let seen = Hashtbl.create 16 in
    let rec walk name acc =
      if Hashtbl.mem seen name then acc
      else begin
        Hashtbl.add seen name ();
        let acc =
          match find_class t name with Some c -> c :: acc | None -> acc
        in
        match Hashtbl.find_opt t.sc_children name with
        | Some kids -> List.fold_left (fun acc k -> walk k acc) acc kids
        | None -> acc
      end
    in
    List.rev (walk name [])
  end

(* The superclass walks below count their steps: a chain longer than
   the class table must have revisited a class, so a superclass cycle
   in malformed input ends the walk with [None].  Counting, unlike a
   visited set, allocates nothing on the dispatch path; the walks are
   top-level functions so that no closure is allocated per call
   either. *)

let rec concrete_from t name params steps cls =
  if steps > Hashtbl.length t.classes then None
  else
    match find_class t cls with
    | None -> None
    | Some c -> (
        match Jclass.find_method c name params with
        | Some m when not m.jm_abstract -> Some (c, m)
        | _ -> (
            match c.c_super with
            | Some s -> concrete_from t name params (steps + 1) s
            | None -> None))

(** [resolve_concrete_uncached t cls subsig] walks the superclass chain
    starting at [cls] looking for a concrete (non-abstract) declaration
    of [subsig]; this is runtime virtual dispatch for an exact receiver
    class.  A superclass cycle ends the walk with [None].  The answer
    is not memoised. *)
let resolve_concrete_uncached t cls (name, params) =
  concrete_from t name params 0 cls

(** [resolve_concrete t cls subsig] is {!resolve_concrete_uncached},
    memoised. *)
let resolve_concrete t cls ((name, params) as subsig) =
  let key = (cls, name, params) in
  match Hashtbl.find_opt t.sc_concrete key with
  | Some r -> r
  | None ->
      let r = resolve_concrete_uncached t cls subsig in
      Hashtbl.replace t.sc_concrete key r;
      r

let rec concrete_named_from t name steps cls =
  if steps > Hashtbl.length t.classes then None
  else
    match find_class t cls with
    | None -> None
    | Some c -> (
        match Jclass.find_method_named c name with
        | Some m when not m.jm_abstract -> Some (c, m)
        | _ -> (
            match c.c_super with
            | Some s -> concrete_named_from t name (steps + 1) s
            | None -> None))

(** [resolve_concrete_named t cls name] is {!resolve_concrete} matching
    on the method name only (used where parameter types are not
    statically known). *)
let resolve_concrete_named t cls name = concrete_named_from t name 0 cls

(** [dispatch_targets t ~static_type subsig] enumerates the concrete
    methods a virtual call with declared receiver type [static_type]
    may dispatch to, per Class Hierarchy Analysis: for every registered
    subtype of [static_type], the concrete resolution of [subsig].
    Duplicates (inherited methods shared by several subclasses) are
    collapsed. *)
let rec dispatch_targets t ~static_type ((name, params) as subsig) =
  match Hashtbl.find_opt t.sc_dispatch (static_type, name, params) with
  | Some ts -> ts
  | None ->
      let ts = dispatch_targets_uncached t ~static_type subsig in
      Hashtbl.replace t.sc_dispatch (static_type, name, params) ts;
      ts

and dispatch_targets_uncached t ~static_type ((name, params) as subsig) =
  ignore params;
  let seen = Hashtbl.create 7 in
  List.filter_map
    (fun c ->
      if c.c_is_interface then None
      else
        match resolve_concrete t c.c_name subsig with
        | Some (decl, m) ->
            let key = (decl.c_name, name) in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.replace seen key ();
              Some (decl, m)
            end
        | None -> None)
    (subtypes t static_type)

(** [methods_with_bodies t] lists every (class, method) pair carrying
    code, the analysable universe. *)
let methods_with_bodies t =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun m -> if Jclass.has_body m then Some (c, m) else None)
        c.c_methods)
    (all_classes t)
