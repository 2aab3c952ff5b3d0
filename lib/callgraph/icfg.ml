(** The inter-procedural control-flow graph (ICFG).

    The view of the program both IFDS solvers traverse: nodes are
    (method, statement-index) pairs; intra-procedural edges come from
    {!Fd_ir.Body}, inter-procedural edges from the {!Callgraph}. *)

open Fd_ir

type node = { n_method : Mkey.t; n_idx : int }

let equal_node a b =
  a == b || (a.n_idx = b.n_idx && Mkey.equal a.n_method b.n_method)

let compare_node a b =
  match Mkey.compare a.n_method b.n_method with
  | 0 -> Int.compare a.n_idx b.n_idx
  | c -> c

let hash_node a = Fd_util.Intern.combine (Mkey.hash a.n_method) a.n_idx

let string_of_node n = Printf.sprintf "%s@%d" (Mkey.to_string n.n_method) n.n_idx

module Node_tbl = Hashtbl.Make (struct
  type t = node

  let equal = equal_node
  let hash = hash_node
end)

type t = {
  cg : Callgraph.t;
  (* per-node memo caches: the call graph is immutable once built, and
     the generic IFDS solver asks for the same successor lists and
     statements once per propagated fact — caching turns the repeated
     method-key lookups and node-list rebuilds into one node hash *)
  ic_succs : node list Node_tbl.t;
  ic_stmts : Stmt.t Node_tbl.t;
}

let create cg =
  { cg; ic_succs = Node_tbl.create 256; ic_stmts = Node_tbl.create 256 }

(** [body g m] is the body of method [m] (must be reachable). *)
let body g m = Callgraph.body_of g.cg m

(** [stmt g n] is the statement at node [n]. *)
let stmt g n =
  match Node_tbl.find_opt g.ic_stmts n with
  | Some s -> s
  | None ->
      let s = Body.stmt (body g n.n_method) n.n_idx in
      Node_tbl.replace g.ic_stmts n s;
      s

(** [succs g n] is the intra-procedural successor nodes of [n]. *)
let succs g n =
  match Node_tbl.find_opt g.ic_succs n with
  | Some ss -> ss
  | None ->
      let ss =
        List.map
          (fun i -> { n_method = n.n_method; n_idx = i })
          (Body.succs (body g n.n_method) n.n_idx)
      in
      Node_tbl.replace g.ic_succs n ss;
      ss

(** [preds g n] is the intra-procedural predecessor nodes of [n]. *)
let preds g n =
  List.map
    (fun i -> { n_method = n.n_method; n_idx = i })
    (Body.preds (body g n.n_method) n.n_idx)

(** [start_node g m] is the entry node of [m] (statement 0). *)
let start_node g m =
  ignore (body g m);
  { n_method = m; n_idx = 0 }

(** [exit_nodes g m] is the return/throw nodes of [m]. *)
let exit_nodes g m =
  List.map (fun i -> { n_method = m; n_idx = i }) (Body.exit_stmts (body g m))

(** [callees g n] is the analysable targets of a call node (empty when
    the call goes only into the framework/library). *)
let callees g n = Callgraph.callees g.cg n.n_method n.n_idx

(** [callers g m] is the call nodes that may invoke [m]. *)
let callers g m =
  List.map
    (fun (caller, idx) -> { n_method = caller; n_idx = idx })
    (Callgraph.callers g.cg m)

(** [clinit_callees g n] — the [<clinit>] methods node [n] triggers
    under the first-use precision pass (empty when the pass is off). *)
let clinit_callees g n = Callgraph.clinit_callees g.cg n.n_method n.n_idx

(** [refl_callees g n] — constant-string-resolved reflective targets
    of an invoke node (empty when the pass is off). *)
let refl_callees g n = Callgraph.refl_callees g.cg n.n_method n.n_idx

(** [clinit_sites g m] — every node whose first-use edge triggers the
    [<clinit>] method [m]. *)
let clinit_sites g m =
  List.map
    (fun (caller, idx) -> { n_method = caller; n_idx = idx })
    (Callgraph.clinit_sites g.cg m)

(** [is_call g n] holds when node [n] contains an invoke. *)
let is_call g n = Stmt.is_call (stmt g n)

(** [invoke g n] is the invoke at [n], if any. *)
let invoke g n = Stmt.invoke_of (stmt g n)

(** [is_exit g n] holds at return/throw nodes. *)
let is_exit g n =
  match (stmt g n).Stmt.s_kind with
  | Stmt.Return _ | Stmt.Throw _ -> true
  | _ -> false
