(** Taint abstractions: the data-flow facts of both IFDS solvers.

    A taint is an access path plus the flow-sensitivity machinery of
    Section 4.2: aliases discovered by the backward analysis are
    {e inactive} and carry their {e activation statement} — the heap
    write that made the alias tainted; only after the forward analysis
    propagates them across that statement (or a call that transitively
    executes it) do they activate and become able to cause leak
    reports.

    Predecessor/derivation links support full path reconstruction and
    are excluded from equality and hashing, exactly as in FlowDroid. *)

open Fd_callgraph

type source_info = {
  si_category : Fd_frontend.Sourcesink.category;
  si_node : Icfg.node;  (** the statement that produced the source value *)
  si_tag : string option;  (** ground-truth tag of the source statement *)
  si_desc : string;  (** human-readable description *)
}

val equal_source : source_info -> source_info -> bool

type t = {
  ap : Access_path.t;
  active : bool;
  activation : Icfg.node option;
      (** the heap-write statement that activates this alias; [Some]
          exactly on inactive aliases, [None] on every active taint *)
  source : source_info;
  pred : t option;  (** derivation link (excluded from equality) *)
  at : Icfg.node option;  (** statement where this abstraction arose *)
  mutable t_memo : int;
      (** cached structural hash; construct taints only through the
          functions below so the cache is reset on every copy *)
}

type fact = Zero | T of t

val equal : fact -> fact -> bool

val hash : fact -> int

val make :
  ap:Access_path.t -> source:source_info -> at:Icfg.node -> unit -> t
(** [make ~ap ~source ~at ()] is a fresh, active source taint. *)

val derive : t -> ap:Access_path.t -> at:Icfg.node -> t
(** [derive t ~ap ~at] rebases [t] onto a new access path, keeping
    activation state and source, recording the derivation. *)

val inactive_alias :
  t -> ap:Access_path.t -> activation:Icfg.node -> at:Icfg.node -> t
(** [inactive_alias t ~ap ~activation ~at] is the abstraction the
    backward analysis propagates: same source, new path, inactive. *)

val active_alias : t -> ap:Access_path.t -> at:Icfg.node -> t
(** [active_alias t ~ap ~at] is the ablation variant of
    {!inactive_alias}: born active, no activation statement. *)

val activate : t -> at:Icfg.node -> t
(** [activate t ~at] turns an inactive alias into a reportable taint
    (it crossed its activation statement).  The result carries no
    activation statement: an active taint is an ordinary taint, so
    activations of one path and source at different heap writes meet
    in one fact. *)

val to_string : t -> string
val fact_to_string : fact -> string

val path : t -> Icfg.node list
(** [path t] reconstructs the statement trail from the source to this
    abstraction, oldest first. *)
