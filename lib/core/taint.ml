(** Taint abstractions: the data-flow facts of both IFDS solvers.

    A taint is an access path plus the flow-sensitivity machinery of
    Section 4.2: aliases discovered by the backward analysis are
    *inactive* and carry their *activation statement* — the heap write
    that made the alias tainted; only after the forward analysis
    propagates them across that statement (or across a call that
    transitively executes it) do they become active and able to cause
    leak reports.

    Each abstraction also links to its predecessor and the statement
    that derived it, so the reporting component can reconstruct full
    source-to-sink paths (Section 5); these links are excluded from
    equality and hashing, exactly as in FlowDroid. *)

open Fd_callgraph

type source_info = {
  si_category : Fd_frontend.Sourcesink.category;
  si_node : Icfg.node;  (** the statement that produced the source value *)
  si_tag : string option;  (** ground-truth tag of the source statement *)
  si_desc : string;  (** human-readable description, e.g. the method name *)
}

let equal_source a b =
  Icfg.equal_node a.si_node b.si_node && a.si_tag = b.si_tag

type t = {
  ap : Access_path.t;
  active : bool;
  activation : Icfg.node option;
      (** the heap-write statement that activates this alias; [Some]
          exactly on inactive aliases, [None] on every active taint *)
  source : source_info;
  (* --- path reconstruction only; excluded from equality --- *)
  pred : t option;
  at : Icfg.node option;  (** statement where this abstraction arose *)
  mutable t_memo : int;
      (** cached {!hash_taint} (0 = not yet computed); taints are
          hashed once per solver-table interning, then reused *)
}

type fact = Zero | T of t

let equal_taint a b =
  a == b
  || (Access_path.equal a.ap b.ap
     && a.active = b.active
     && (match (a.activation, b.activation) with
        | None, None -> true
        | Some x, Some y -> Icfg.equal_node x y
        | _ -> false)
     && equal_source a.source b.source)

let equal a b =
  match (a, b) with
  | Zero, Zero -> true
  | T x, T y -> equal_taint x y
  | _ -> false

(* a fold over every equality-relevant component ([Hashtbl.hash]'s
   node limit used to drop deep access-path segments), memoised in
   [t_memo] since taints are immutable once built *)
let hash_taint t =
  if t.t_memo <> 0 then t.t_memo
  else begin
    let ( ** ) = Fd_util.Intern.combine in
    let h = Access_path.hash t.ap ** if t.active then 3 else 5 in
    let h =
      h ** (match t.activation with None -> 0 | Some n -> Icfg.hash_node n)
    in
    let h = h ** Icfg.hash_node t.source.si_node in
    let h = h ** Hashtbl.hash t.source.si_tag in
    let h = if h = 0 then 1 else h in
    t.t_memo <- h;
    h
  end

let hash = function Zero -> 0 | T t -> hash_taint t

(** [make ~ap ~source ~at ()] is a fresh, active source taint. *)
let make ~ap ~source ~at () =
  { ap; active = true; activation = None; source; pred = None; at = Some at;
    t_memo = 0 }

(** [derive t ~ap ~at] is [t] rebased onto a new access path at
    statement [at], keeping activation state and source, and recording
    the derivation for path reconstruction. *)
let derive t ~ap ~at =
  { t with ap; pred = Some t; at = Some at; t_memo = 0 }

(** [inactive_alias t ~ap ~activation ~at] is the abstraction the
    backward analysis propagates: same source, new path, inactive,
    activated at [activation]. *)
let inactive_alias t ~ap ~activation ~at =
  { t with ap; active = false; activation = Some activation; pred = Some t;
    at = Some at; t_memo = 0 }

(** [active_alias t ~ap ~at] is the ablation variant of
    {!inactive_alias}: the alias is born active with no activation
    statement (flow-insensitive Andromeda-style handover). *)
let active_alias t ~ap ~at =
  { t with ap; active = true; activation = None; pred = Some t; at = Some at;
    t_memo = 0 }

(** [activate t ~at] turns an inactive alias into a reportable taint
    (it crossed its activation statement).  The active copy drops the
    activation statement, as FlowDroid's does: from here on it is an
    ordinary taint, equal to every other activation of the same path
    and source, so the facts derived from it do not multiply with the
    number of heap writes that activated it. *)
let activate t ~at =
  if t.active then t
  else
    { t with active = true; activation = None; pred = Some t; at = Some at;
      t_memo = 0 }

let to_string t =
  Printf.sprintf "%s%s%s" (Access_path.to_string t.ap)
    (if t.active then "" else "*inactive*")
    (match t.activation with
    | Some n -> Printf.sprintf "@act:%s" (Icfg.string_of_node n)
    | None -> "")

let fact_to_string = function Zero -> "0" | T t -> to_string t

(** [path t] reconstructs the statement trail from the source to this
    abstraction, oldest first. *)
let path t =
  let rec go acc t =
    let acc = match t.at with Some n -> n :: acc | None -> acc in
    match t.pred with Some p -> go acc p | None -> acc
  in
  go [] t
