(** Access paths (Section 4.1).

    An access path is [x.f.g] where [x] is a local (or a static field
    for globals) and [f], [g] are fields, with a user-customisable
    maximal length (5 by default).  An access path *implicitly
    describes all objects reachable through it*: [x.f] covers [x.f.g],
    [x.f.h], and so on — matching is therefore prefix matching, and
    truncation at the maximal length only widens the abstraction. *)

open Fd_ir

type base =
  | Bloc of Stmt.local
  | Bstatic of Types.field_sig  (** static-field-rooted paths *)

type t = {
  base : base;
  fields : Types.field_sig list;  (** outermost access first *)
}

let equal_base a b =
  match (a, b) with
  | Bloc x, Bloc y -> Stmt.equal_local x y
  | Bstatic f, Bstatic g -> Types.equal_field_sig f g
  | _ -> false

let rec equal_fields xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs', y :: ys' -> Types.equal_field_sig x y && equal_fields xs' ys'
  | _ -> false

let equal a b =
  a == b || (equal_base a.base b.base && equal_fields a.fields b.fields)

(* a fold over the base and *every* field segment: [Hashtbl.hash]
   stops at its meaningful-node limit, so paths differing only deep in
   the chain used to collide (and the old version allocated a whole
   shadow list per hash) *)
let hash_base = function
  | Bloc l -> Fd_util.Intern.combine 1 (Stmt.hash_local l)
  | Bstatic f -> Fd_util.Intern.combine 2 (Types.hash_field_sig f)

let hash t =
  Fd_util.Intern.fold_hash Types.hash_field_sig (hash_base t.base) t.fields

let to_string t =
  let b =
    match t.base with
    | Bloc l -> l.Stmt.l_name
    | Bstatic f -> "<" ^ Types.string_of_field_sig f ^ ">"
  in
  List.fold_left (fun acc f -> acc ^ "." ^ f.Types.f_name) b t.fields

(** [of_local l] is the length-0 path [l]. *)
let of_local l = { base = Bloc l; fields = [] }

(** [of_field l f] is [l.f]. *)
let of_field l f = { base = Bloc l; fields = [ f ] }

(** [of_static f] is the static-field root. *)
let of_static f = { base = Bstatic f; fields = [] }

(** [length t] is the number of field accesses. *)
let length t = List.length t.fields

(** [truncate ~k t] drops fields beyond the maximal length [k]; by the
    implicit-suffix semantics this only widens the set of described
    objects, never loses it. *)
let truncate ~k t =
  if length t <= k then t
  else { t with fields = List.filteri (fun i _ -> i < k) t.fields }

(** [is_static t] holds for static-field-rooted paths. *)
let is_static t = match t.base with Bstatic _ -> true | Bloc _ -> false

(** [has_prefix ~prefix t]: does [t] extend (or equal) [prefix]?  This
    is the reading-direction match: if [prefix] is tainted then the
    value at [t] is reachable from tainted data. *)
let has_prefix ~prefix t =
  equal_base prefix.base t.base
  &&
  let rec go ps ts =
    match (ps, ts) with
    | [], _ -> true
    | p :: ps', t :: ts' -> Types.equal_field_sig p t && go ps' ts'
    | _ :: _, [] -> false
  in
  go prefix.fields t.fields

(** [covers ~taint t]: does a taint on [taint] make the value at [t]
    tainted?  By the implicit-suffix semantics a taint on [x.f] covers
    any [x.f....]; additionally, because truncation widens, a taint
    on a *longer* path does not cover a shorter one — except that
    FlowDroid reports an object as tainted as soon as any of its
    sub-fields is tainted when it is passed somewhere whole, which is
    the [reaches] relation below. *)
let covers ~taint t = has_prefix ~prefix:taint t

(** [reaches ~taint t]: is tainted data reachable from the value at
    [t]?  True when one is a prefix of the other: a taint on [x.f]
    makes [x] a carrier of tainted data (passing [x] to a sink leaks),
    and a taint on [x] covers [x.f]. *)
let reaches ~taint t = has_prefix ~prefix:taint t || has_prefix ~prefix:t taint

(** [rebase ~k ~from ~to_ t] rewrites [t] by replacing its prefix
    [from] with [to_], truncating to [k]: the core operation of every
    assignment flow function.  [None] when [from] is not a prefix of
    [t]. *)
let rebase ~k ~from ~to_ t =
  if not (has_prefix ~prefix:from t) then None
  else begin
    let rec drop n xs = if n = 0 then xs else drop (n - 1) (List.tl xs) in
    let suffix = drop (List.length from.fields) t.fields in
    Some (truncate ~k { base = to_.base; fields = to_.fields @ suffix })
  end

(* ------------------------------------------------------------------ *)
(* constant-index array cells (precision pass, Config.array_index)     *)
(* ------------------------------------------------------------------ *)

(* the reserved declaring-class marker of index pseudo-fields; no real
   µJimple field can carry it (class names never start with '<') *)
let index_class = "<array>"

(** [index_field i] is the pseudo-field [<idx:i>] denoting the [i]-th
    cell of an array; access paths treat it like any other field, so
    k-limiting and prefix matching apply unchanged.  (Pure constructor
    — field_sig equality is structural, so no memoisation is needed
    and the function stays domain-safe.) *)
let index_field i =
  {
    Types.f_class = index_class;
    f_name = Printf.sprintf "<idx:%d>" i;
    f_type = Types.Ref Types.object_class;
  }

(** [is_index_field f] recognises {!index_field} pseudo-fields. *)
let is_index_field (f : Types.field_sig) = String.equal f.Types.f_class index_class
