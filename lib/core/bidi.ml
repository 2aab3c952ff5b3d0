(** The bidirectional taint solver: Algorithms 1 and 2 of the paper.

    Two IFDS-style worklist solvers run interleaved over the same
    inter-procedural CFG:

    - the {b forward} solver propagates taint abstractions along
      control flow, with the standard IFDS machinery (path edges, end
      summaries, incoming sets per Naeem–Lhoták);
    - the {b backward} solver is spawned on demand whenever a tainted
      value is assigned to a heap location; it searches *upwards* for
      aliases of the written access path.

    The handover implements the two precision mechanisms Section 4.2
    claims as novel:

    + {b context injection}: a spawned backward edge inherits the
      forward path edge's context [⟨sp, d1⟩] (and vice versa), so the
      combined analysis never produces facts along unrealizable paths
      with conflicting contexts (Figure 3).  The backward analysis
      never returns into callers on its own — when it reaches a
      method's first statement it hands the fact to the forward
      solver, injecting its incoming information so the forward pass
      returns only into the right callers.
    + {b activation statements}: every alias is born *inactive*,
      tagged with the heap-write statement that will make it tainted;
      only once the forward analysis carries it across that statement
      (or across a call that transitively contains it, tracked by the
      global activation-site association) does it activate and become
      able to trigger leak reports (Listing 3).  The active copy drops
      the activation statement ({!Taint.activate}), so activations of
      one alias at different writes meet in one fact.

    Both mechanisms can be disabled through {!Config.t} to reproduce
    the naive handover and the Andromeda-style flow-insensitive
    behaviour in the ablation benchmarks. *)

open Fd_ir
open Fd_callgraph
module AP = Access_path
module SS = Fd_frontend.Sourcesink

(* solver metrics (namespaces: ifds.* for the shared tabulation
   machinery — the same counters the generic [Fd_ifds] solver uses —
   and bidi.* for the bidirectional-specific mechanisms); handles are
   resolved once so hot-path updates are single field increments *)
module M = Fd_obs.Metrics
module Prov = Fd_obs.Provenance

let m_path_edges = M.counter "ifds.path_edges"
let m_worklist_pushes = M.counter "ifds.worklist_pushes"
let m_worklist_pops = M.counter "ifds.worklist_pops"
let m_summaries = M.counter "ifds.summaries_installed"
let m_summary_apps = M.counter "ifds.summary_applications"
let m_flow_normal = M.counter "ifds.flow.normal"
let m_flow_call = M.counter "ifds.flow.call"

(* static-rooted facts kept out of a callee that cannot touch their
   field: they reach the return site only on the call-to-return edge *)
let m_flow_call_static_skipped = M.counter "ifds.flow.call_static_skipped"

(* analysable callees the zero fact stays out of because their call
   tree generates no taint, counted once per calling method's zero
   context at every call site its walk reaches (see {!zero_work}) *)
let m_flow_call_zero_skipped = M.counter "ifds.flow.call_zero_skipped"
let m_flow_return = M.counter "ifds.flow.return"
let m_flow_c2r = M.counter "ifds.flow.call_to_return"
let m_fw_props = M.counter "bidi.fw_propagations"
let m_bw_props = M.counter "bidi.bw_propagations"
let m_alias_queries = M.counter "bidi.alias_queries"
let m_fw_injections = M.counter "bidi.fw_injections"
let m_bw_steps = M.counter "bidi.backward_steps"
let m_activations = M.counter "bidi.activations"
let m_findings = M.counter "core.findings"

(* one step of a provenance witness: the program point, its statement
   and the solver fact that held there, plus the flow-function kind
   that derived it from the previous step *)
type witness_step = Solver_ext.witness_step = {
  ws_node : Icfg.node;
  ws_stmt : string;
  ws_fact : string;
  ws_kind : string;
}

type finding = {
  f_source : Taint.source_info;
  f_sink_node : Icfg.node;
  f_sink_tag : string option;
  f_sink_cat : SS.category;
  f_path : Icfg.node list;
  f_witness : witness_step list;
      (** source-to-sink derivation reconstructed from provenance
          edges; [[]] unless {!Config.t.provenance} was on *)
}

(* ---------------- interned solver state ----------------

   Facts, contexts and program points are interned into dense integer
   ids (all below [Intern.id_bound] = 2^31) at the propagation
   boundary.  Each solver's three "seen" tables (path edges, end
   summaries, incoming calls) are flat pair sets keyed
   [(id, id lsl 31 lor id)], the worklist is a FIFO of unboxed id
   triples mapped back through id-indexed arrays, and the per-node /
   per-method views the flow functions consume — statement,
   successors, predecessors, callees, parameter locals, source/sink
   classifications — are resolved once and cached against the id.  A
   method's node views sit in an array on its view, indexed by
   statement, and exist only for the statements the solver touches.
   The forward results live on the node view too: one fact id per
   forward path edge, deduplicated only when {!results_at} reads
   them.  Every table starts small and doubles as it fills: a fleet
   runs thousands of solves of a few dozen path edges each.  All of it
   lives inside the engine value, so engines on different domains
   never share mutable state. *)

let m_dedup_hits = M.counter "ifds.worklist_dedup_hits"
let g_intern_facts = M.gauge "intern.facts.size"
let g_intern_fact_hits = M.gauge "intern.facts.hits"
let g_intern_fact_misses = M.gauge "intern.facts.misses"
let g_intern_nodes = M.gauge "intern.nodes.size"
let g_intern_methods = M.gauge "intern.methods.size"
let g_intern_ctxs = M.gauge "intern.ctxs.size"

(* live byte-size accounting for the solver tables (see
   [solver_bytes]) *)
let g_bytes_fw = M.gauge "mem.fw_tables.bytes"
let g_bytes_bw = M.gauge "mem.bw_tables.bytes"
let g_bytes_facts = M.gauge "mem.fact_pool.bytes"

module Int_tbl = Hashtbl.Make (Int)

module I2_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = Fd_util.Intern.combine a b
end)

module Pair_set = Fd_util.Intern.Pair_set
module Int_fifo = Fd_util.Intern.Int_fifo

module Fact_pool = Fd_util.Intern.Make (struct
  type t = Taint.fact

  let equal = Taint.equal
  let hash = Taint.hash
end)

module Node_tbl = Icfg.Node_tbl

(* a finding's identity: source node, source tag, sink node (see
   {!compare_finding}) *)
module Finding_tbl = Hashtbl.Make (struct
  type t = Icfg.node * string option * Icfg.node

  let equal (s, g, k) (s', g', k') =
    Icfg.equal_node s s'
    && Option.equal String.equal g g'
    && Icfg.equal_node k k'

  let hash (s, g, k) =
    Fd_util.Intern.combine
      (Fd_util.Intern.combine (Icfg.hash_node s)
         (match g with Some g -> Hashtbl.hash g | None -> 0))
      (Icfg.hash_node k)
end)

(* per-method view: body, parameter binding and exit points, resolved
   once per method instead of per call edge *)
type minfo = {
  mi_id : int;
  mi_key : Mkey.t;
  mi_body : Body.t option;  (** [None] for un-analysable targets *)
  mi_this : Stmt.local option;
  mi_params : (int * Stmt.local) list;
  mi_exits : int list;
  mutable mi_nodes : ninfo option array;
      (** statement index -> its node view, made on first use; [[||]]
          until the first *)
  mutable mi_exit_nis : ninfo list option;
  mutable mi_must_alias : Fd_precision.Must_alias.t option;
      (** the strong-update pass's must-alias partitions, computed on
          the first query *)
  mutable mi_zero_work : (ninfo * Prov.kind) list option;
      (** the nodes where the zero fact does work (see {!zero_work}) *)
  mutable mi_live : Liveness.t option;
      (** live locals per statement, computed on the first query (see
          {!dead_at}) *)
}

(* per-node view: everything the solver used to recompute on every
   worklist pop (each recomputation re-hashed the method key's
   strings) *)
and ninfo = {
  ni_id : int;
  ni_node : Icfg.node;
  ni_minfo : minfo;
  ni_stmt : Stmt.t;
  ni_invoke : Stmt.invoke option;
  ni_is_exit : bool;
  mutable ni_succs : ninfo list option;
  mutable ni_preds : ninfo list option;
  mutable ni_callees : minfo list option;
  mutable ni_call : callinfo option;  (** cached call-site data *)
  mutable ni_zero_gen : Taint.t list option;
      (** parameter-source taints generated under the zero fact *)
  mutable ni_results : int array;
      (** the fact id of every non-zero forward path edge at this
          node, oldest first in its first [ni_n_results] slots; an id
          repeats once per context *)
  mutable ni_n_results : int;
}

(* node-constant call-site classifications (sink category, wrapper /
   native / default library model, return local, generated sources) *)
and callinfo = {
  ci_sink : SS.category option;
  ci_wrapper : Fd_frontend.Rules.effect list option;
  ci_ret : Stmt.local option;
  ci_sources : Taint.t list;
  ci_c2r : Fd_frontend.Rules.effect list option;
      (** effects applied on the call-to-return edge *)
}

type cctx = { cc_id : int; cc_proc : minfo; cc_fact : Taint.fact }
(** an IFDS context [⟨sp, d1⟩], interned: equal contexts are the same
    value and carry the same id *)

(* two ids below 2^31 packed into one pair-set component *)
let pack hi lo = (hi lsl 31) lor lo

type solver = {
  s_edges : Pair_set.t;  (** path edges: (ctx, pack node fact) ids *)
  s_summaries : (ninfo * Taint.fact) list ref Int_tbl.t;
      (** (proc entry context id) -> exit facts *)
  s_sum_seen : Pair_set.t;  (** (ctx, pack exit-node fact) ids *)
  s_incoming : (ninfo * cctx) list ref Int_tbl.t;
      (** (callee entry context id) -> call sites with caller contexts *)
  s_inc_seen : Pair_set.t;  (** (ctx, pack call-node caller-ctx) ids *)
  s_work : Int_fifo.t;  (** (ctx, node, fact) id triples, FIFO *)
}

(* small initial capacities: fleets run thousands of tiny solves, and
   the sets double as they fill *)
let mk_solver () =
  {
    s_edges = Pair_set.create ();
    s_summaries = Int_tbl.create 16;
    s_sum_seen = Pair_set.create ();
    s_incoming = Int_tbl.create 16;
    s_inc_seen = Pair_set.create ();
    s_work = Int_fifo.create ();
  }

type t = {
  cfg : Config.t;
  icfg : Icfg.t;
  scene : Scene.t;
  mgr : Srcsink_mgr.t;
  wrappers : Fd_frontend.Rules.t;
  natives : Fd_frontend.Rules.t;
  (* interning pools — one set per engine instance *)
  facts : Fact_pool.pool;
  minfos : minfo Mkey.Tbl.t;
  mutable n_minfos : int;
  mutable ninfo_by_id : ninfo array;  (** ni_id -> node view, dense *)
  mutable n_ninfos : int;
  cctxs : cctx I2_tbl.t;  (** (method id, fact id) -> context *)
  mutable cctx_by_id : cctx array;  (** cc_id -> context, dense *)
  mutable n_cctxs : int;
  fw : solver;
  bw : solver;
  mutable findings : finding list;
  finding_keys : unit Finding_tbl.t;
  (* activation statement -> call sites whose completion implies the
     activation has executed, and the methods those call sites live in *)
  act_sites : unit Node_tbl.t Node_tbl.t;
  act_methods : unit Mkey.Tbl.t Node_tbl.t;
  trees : Call_tree.t;  (** what each callee's call tree can do *)
  prune_dead : bool;  (** whether {!dead_at} taints are dropped *)
  budget : Fd_resilience.Budget.t;
  flight : Fd_obs.Ring.t;
      (** the last seeds, pops, call edges and return edges, as
          (kind, id, id); rendered by {!post_mortem} *)
  mutable ext : Solver_ext.t;
      (** the enabled extensions (see {!create}), set once the engine
          exists because they read it through a view *)
}

let k t = t.cfg.Config.max_access_path
let prec t = t.cfg.Config.precision

(* ---------------- program-view resolution ---------------- *)

(* [append arr n v] stores [v] under the fresh id [n] (the current
   count) of a dense id-indexed array, doubling the array when full *)
let append arr n v =
  Fd_util.Intern.check_id "solver" n;
  let arr =
    if n < Array.length arr then arr
    else Array.append arr (Array.make (max 16 n) v)
  in
  arr.(n) <- v;
  arr

let minfo_of t mk =
  match Mkey.Tbl.find_opt t.minfos mk with
  | Some mi -> mi
  | None ->
      let body =
        match Callgraph.body_of t.icfg.Icfg.cg mk with
        | b -> Some b
        | exception Not_found -> None
      in
      let this_l, params =
        match body with Some b -> Body.param_locals b | None -> (None, [])
      in
      let exits =
        match body with Some b -> Body.exit_stmts b | None -> []
      in
      let mi =
        {
          mi_id = t.n_minfos;
          mi_key = mk;
          mi_body = body;
          mi_this = this_l;
          mi_params = params;
          mi_exits = exits;
          mi_nodes = [||];
          mi_exit_nis = None;
          mi_must_alias = None;
          mi_zero_work = None;
          mi_live = None;
        }
      in
      t.n_minfos <- t.n_minfos + 1;
      Mkey.Tbl.replace t.minfos mk mi;
      mi

(* the view of statement [idx] of [mi], made on first use *)
let ni_at t (mi : minfo) idx =
  let body = match mi.mi_body with Some b -> b | None -> raise Not_found in
  if Array.length mi.mi_nodes = 0 then
    mi.mi_nodes <- Array.make (Body.length body) None;
  match mi.mi_nodes.(idx) with
  | Some ni -> ni
  | None ->
      let stmt = Body.stmt body idx in
      let ni =
        {
          ni_id = t.n_ninfos;
          ni_node = Icfg.{ n_method = mi.mi_key; n_idx = idx };
          ni_minfo = mi;
          ni_stmt = stmt;
          ni_invoke = Stmt.invoke_of stmt;
          ni_is_exit =
            (match stmt.Stmt.s_kind with
            | Stmt.Return _ | Stmt.Throw _ -> true
            | _ -> false);
          ni_succs = None;
          ni_preds = None;
          ni_callees = None;
          ni_call = None;
          ni_zero_gen = None;
          ni_results = [||];
          ni_n_results = 0;
        }
      in
      t.ninfo_by_id <- append t.ninfo_by_id t.n_ninfos ni;
      t.n_ninfos <- t.n_ninfos + 1;
      mi.mi_nodes.(idx) <- Some ni;
      ni

let ninfo_of t (n : Icfg.node) = ni_at t (minfo_of t n.Icfg.n_method) n.Icfg.n_idx

let succs t (ni : ninfo) =
  match ni.ni_succs with
  | Some s -> s
  | None ->
      let mi = ni.ni_minfo in
      let s =
        List.map (ni_at t mi)
          (Body.succs (Option.get mi.mi_body) ni.ni_node.Icfg.n_idx)
      in
      ni.ni_succs <- Some s;
      s

let preds t (ni : ninfo) =
  match ni.ni_preds with
  | Some s -> s
  | None ->
      let mi = ni.ni_minfo in
      let s =
        List.map (ni_at t mi)
          (Body.preds (Option.get mi.mi_body) ni.ni_node.Icfg.n_idx)
      in
      ni.ni_preds <- Some s;
      s

let callees t (ni : ninfo) =
  match ni.ni_callees with
  | Some cs -> cs
  | None ->
      let cs =
        List.map (minfo_of t)
          (Callgraph.callees t.icfg.Icfg.cg ni.ni_node.Icfg.n_method
             ni.ni_node.Icfg.n_idx)
      in
      ni.ni_callees <- Some cs;
      cs

let start_ni t (mi : minfo) = ni_at t mi 0

let exit_nis t (mi : minfo) =
  match mi.mi_exit_nis with
  | Some nis -> nis
  | None ->
      let nis = List.map (ni_at t mi) mi.mi_exits in
      mi.mi_exit_nis <- Some nis;
      nis

(* a fact's pool id; [fact_of] is the canonical (first-seen)
   representative, which is what the solver stores, so downstream
   equality checks hit the physical-equality fast path *)
let intern_fact t fact = Fact_pool.id t.facts fact
let fact_of t fid = Fact_pool.value t.facts fid

let cctx t (mi : minfo) fact =
  let fid = intern_fact t fact in
  let key = (mi.mi_id, fid) in
  match I2_tbl.find_opt t.cctxs key with
  | Some c -> c
  | None ->
      let c = { cc_id = t.n_cctxs; cc_proc = mi; cc_fact = fact_of t fid } in
      t.cctx_by_id <- append t.cctx_by_id t.n_cctxs c;
      t.n_cctxs <- t.n_cctxs + 1;
      I2_tbl.replace t.cctxs key c;
      c

(* ---------------- propagation ---------------- *)

(* append a fact id to the node's forward results, doubling the array
   when full *)
let add_result (ni : ninfo) fid =
  let n = ni.ni_n_results in
  if n = Array.length ni.ni_results then begin
    let a = Array.make (max 4 (2 * n)) 0 in
    Array.blit ni.ni_results 0 a 0 n;
    ni.ni_results <- a
  end;
  ni.ni_results.(n) <- fid;
  ni.ni_n_results <- n + 1

(* probe, then [Budget.tick], then insert at the probed slot: a
   budget-stopped run records exactly the edges it ticked for *)
let propagate ?(kind = Prov.Normal) t solver cx (ni : ninfo) fact =
  let fid = intern_fact t fact in
  let key = pack ni.ni_id fid in
  let slot = Pair_set.slot solver.s_edges cx.cc_id key in
  if Pair_set.occupied solver.s_edges slot then M.incr m_dedup_hits
  else if Fd_resilience.Budget.tick t.budget then begin
    M.incr m_path_edges;
    M.incr m_worklist_pushes;
    let fw = solver == t.fw in
    if fw then begin
      M.incr m_fw_props;
      match fact with
      | Taint.T _ -> add_result ni fid
      | Taint.Zero -> ()
    end
    else M.incr m_bw_props;
    t.ext.edge ~fw ~kind ~node:ni.ni_id ~fact:fid;
    Pair_set.insert_at solver.s_edges slot cx.cc_id key;
    Int_fifo.push solver.s_work cx.cc_id;
    Int_fifo.push solver.s_work ni.ni_id;
    Int_fifo.push solver.s_work fid
  end

(* the dead-local rule: an active forward taint rooted at a local
   that is not live-in at [ni] reaches no sink, argument, heap write
   or caller, and only reproduces itself at later nodes, where it is
   dead too.  A field path of [this] or of a parameter is kept:
   [return_flow] maps it back to the caller at every exit.  Inactive
   taints are kept: [return_flow] records their activation sites. *)
let dead_at (ni : ninfo) (fact : Taint.fact) =
  match fact with
  | Taint.T { Taint.active = true; ap = { AP.base = AP.Bloc x; fields }; _ }
    ->
      let mi = ni.ni_minfo in
      let live =
        match mi.mi_live with
        | Some l -> l
        | None ->
            let l = Liveness.analyze (Option.get mi.mi_body) in
            mi.mi_live <- Some l;
            l
      in
      (not (Liveness.live_in live ni.ni_node.Icfg.n_idx x))
      && (fields = []
         || not
              (Option.fold ~none:false ~some:(Stmt.equal_local x) mi.mi_this
              || List.exists (fun (_, p) -> Stmt.equal_local x p) mi.mi_params
              ))
  | _ -> false

let propagate_fw ?kind t cx ni fact =
  if not (t.prune_dead && dead_at ni fact) then
    propagate ?kind t t.fw cx ni fact

let propagate_bw ?kind t cx ni fact = propagate ?kind t t.bw cx ni fact

let int_cell tbl id =
  match Int_tbl.find_opt tbl id with
  | Some c -> c
  | None ->
      let c = ref [] in
      Int_tbl.replace tbl id c;
      c

(* a context's entries in one of the per-context list tables *)
let listed tbl (cx : cctx) =
  match Int_tbl.find_opt tbl cx.cc_id with Some c -> !c | None -> []

(* flight-recorder event kinds *)
let ev_seed = 0
let ev_fw_pop = 1
let ev_bw_pop = 2
let ev_call = 3
let ev_return = 4

let post_mortem t =
  let node id = Icfg.string_of_node t.ninfo_by_id.(id).ni_node in
  let fact id = Taint.fact_to_string (fact_of t id) in
  Fd_resilience.Budget.post_mortem t.budget t.flight (fun kind a b ->
      if kind = ev_seed then "seed " ^ node a
      else if kind = ev_call then
        Printf.sprintf "call-edge %s -> %s" (node a)
          (Mkey.to_string t.cctx_by_id.(b).cc_proc.mi_key)
      else
        Printf.sprintf "%s %s %s"
          (if kind = ev_fw_pop then "fw.pop"
           else if kind = ev_bw_pop then "bw.pop"
           else "return-edge")
          (node a) (fact b))

(* only the forward solver keeps incoming calls: it alone returns into
   callers *)
let add_incoming t cx_callee ((ni : ninfo), (caller_cx : cctx)) =
  if
    Pair_set.add t.fw.s_inc_seen cx_callee.cc_id
      (pack ni.ni_id caller_cx.cc_id)
  then begin
    Fd_obs.Ring.push t.flight ev_call ni.ni_id cx_callee.cc_id;
    let cell = int_cell t.fw.s_incoming cx_callee.cc_id in
    cell := (ni, caller_cx) :: !cell
  end

let add_summary t solver cx_callee ((ni : ninfo), fact) =
  let fid = intern_fact t fact in
  if not (Pair_set.add solver.s_sum_seen cx_callee.cc_id (pack ni.ni_id fid))
  then false
  else begin
    let fact = fact_of t fid in
    Fd_obs.Ring.push t.flight ev_return ni.ni_id fid;
    let cell = int_cell solver.s_summaries cx_callee.cc_id in
    cell := (ni, fact) :: !cell;
    M.incr m_summaries;
    true
  end

(* ---------------- engine construction ---------------- *)

(* the extensions' read access to the engine, by interned id *)
let view t : Solver_ext.view =
  let cx id = t.cctx_by_id.(id) in
  {
    node = (fun id -> t.ninfo_by_id.(id).ni_node);
    method_id = (fun id -> t.ninfo_by_id.(id).ni_minfo.mi_id);
    stmt = (fun id -> t.ninfo_by_id.(id).ni_stmt);
    fact = fact_of t;
    intern = intern_fact t;
    iter_contexts =
      (fun f ->
        for id = 0 to t.n_cctxs - 1 do
          let c = t.cctx_by_id.(id) in
          f c.cc_id c.cc_proc.mi_key c.cc_fact
        done);
    callers =
      (fun id ->
        List.map (fun (_, c) -> c.cc_id) (listed t.fw.s_incoming (cx id)));
    exits =
      (fun id ->
        List.map
          (fun ((ni : ninfo), f) -> (ni.ni_node.Icfg.n_idx, f))
          (listed t.fw.s_summaries (cx id)));
  }

let create ?budget ?store ?(prune_dead = true) ~config ~icfg ~scene ~mgr
    ~wrappers ~natives () =
  let budget =
    match budget with Some b -> b | None -> Config.budget config
  in
  let t =
    {
      cfg = config;
      icfg;
      scene;
      mgr;
      wrappers;
      natives;
      facts = Fact_pool.create ~size:16 ();
      minfos = Mkey.Tbl.create 16;
      n_minfos = 0;
      ninfo_by_id = [||];
      n_ninfos = 0;
      cctxs = I2_tbl.create 16;
      cctx_by_id = [||];
      n_cctxs = 0;
      fw = mk_solver ();
      bw = mk_solver ();
      findings = [];
      finding_keys = Finding_tbl.create 8;
      act_sites = Node_tbl.create 16;
      act_methods = Node_tbl.create 16;
      trees = Call_tree.create ~cg:icfg.Icfg.cg ~mgr ~config;
      prune_dead;
      budget;
      flight = Fd_obs.Ring.create ();
      ext = Solver_ext.none;
    }
  in
  let v = view t in
  t.ext <-
    List.fold_left Solver_ext.combine Solver_ext.none
      [
        (if config.Config.provenance then Ext_provenance.make v
         else Ext_provenance.off);
        (if config.Config.profile then Ext_profile.make v
         else Solver_ext.none);
        (match store with
        | Some h -> Ext_store.make h v
        | None -> Solver_ext.none);
      ];
  t

let fresh ?store ?prune_dead t =
  create ?store ?prune_dead ~config:t.cfg ~icfg:t.icfg ~scene:t.scene ~mgr:t.mgr
    ~wrappers:t.wrappers ~natives:t.natives ()

(* ---------------- findings ---------------- *)

(** [compare_finding a b] orders findings by sink node, then source
    node, then source tag: the identity {!report} deduplicates on (a
    sink's tag is its statement's) *)
let compare_finding a b =
  let sa = a.f_source and sb = b.f_source in
  match Icfg.compare_node a.f_sink_node b.f_sink_node with
  | 0 -> (
      match Icfg.compare_node sa.Taint.si_node sb.Taint.si_node with
      | 0 -> Option.compare String.compare sa.Taint.si_tag sb.Taint.si_tag
      | c -> c)
  | c -> c

(* [taint] is absent for store replays: their paths were not walked in
   this process *)
let report t ~cx ?taint ~(source : Taint.source_info) ~sink_node ~sink_tag
    ~sink_cat () =
  let key = (source.Taint.si_node, source.Taint.si_tag, sink_node) in
  let fresh = not (Finding_tbl.mem t.finding_keys key) in
  let witness =
    t.ext.report ~ctx:cx.cc_id ~fresh ~source ~sink:sink_node ~tag:sink_tag
      ~cat:sink_cat
  in
  if fresh then begin
    Finding_tbl.replace t.finding_keys key ();
    M.incr m_findings;
    t.findings <-
      {
        f_source = source;
        f_sink_node = sink_node;
        f_sink_tag = sink_tag;
        f_sink_cat = sink_cat;
        f_path =
          (match taint with
          | Some taint -> Taint.path taint @ [ sink_node ]
          | None -> [ sink_node ]);
        f_witness = witness;
      }
      :: t.findings
  end

(* ---------------- activation machinery ---------------- *)

(* the inner set of [key] in an activation-keyed table, made on demand *)
let inner_set tbl key create =
  match Node_tbl.find_opt tbl key with
  | Some s -> s
  | None ->
      let s = create 4 in
      Node_tbl.replace tbl key s;
      s

let node_set_add tbl key n =
  Node_tbl.replace (inner_set tbl key Node_tbl.create) n ()

let mkey_set_add tbl key mk =
  Mkey.Tbl.replace (inner_set tbl key Mkey.Tbl.create) mk ()

let is_act_site t ~activation n =
  Node_tbl.length t.act_sites > 0
  &&
  match Node_tbl.find_opt t.act_sites activation with
  | Some s -> Node_tbl.mem s n
  | None -> false

let act_method_implies t ~activation mk =
  Mkey.equal activation.Icfg.n_method mk
  || (Node_tbl.length t.act_methods > 0
     &&
     match Node_tbl.find_opt t.act_methods activation with
     | Some s -> Mkey.Tbl.mem s mk
     | None -> false)

(* ---------------- summary-store injection ---------------- *)

(* On a store hit for (callee, entry fact) — answered by the [lookup]
   extension event — install the decoded end summaries and replay the
   subtree's sink reports instead of seeding the callee: the caller's
   summary-application loop then maps them through [return_flow]
   exactly as if the subtree had been analysed.  Returns true when the
   descent seed must be skipped.  Two pieces of cold-run bookkeeping
   are reproduced explicitly:

   - every decoded inactive fact's activation statement is associated
     with the callee ([act_methods]), the invariant the skipped
     returns would have established bottom-up, so [return_flow]'s
     activation-site registration fires for the caller as usual;
   - replayed reports are raised under the *injected* context, so a
     store-eligible ancestor persisting its own subtree still sees
     them. *)
let inject_stored_summaries t (cx_callee : cctx) =
  match
    t.ext.lookup ~ctx:cx_callee.cc_id ~callee:cx_callee.cc_proc.mi_key
      ~entry:cx_callee.cc_fact
  with
  | None -> false
  | Some inj ->
      let exits = exit_nis t cx_callee.cc_proc in
      List.iter
        (fun (idx, f) ->
          match
            List.find_opt (fun (e : ninfo) -> e.ni_node.Icfg.n_idx = idx) exits
          with
          | None -> ()
          | Some eni ->
              (match f with
              | Taint.T { Taint.active = false; activation = Some a; _ } ->
                  mkey_set_add t.act_methods a cx_callee.cc_proc.mi_key
              | _ -> ());
              ignore (add_summary t t.fw cx_callee (eni, f)))
        inj.Summary.inj_summaries;
      List.iter
        (fun (r : Summary.sink_report) ->
          report t ~cx:cx_callee ~source:r.Summary.sr_source
            ~sink_node:r.Summary.sr_sink ~sink_tag:r.Summary.sr_tag
            ~sink_cat:r.Summary.sr_cat ())
        inj.Summary.inj_reports;
      true

(* activate an outgoing taint when it crosses its activation node or a
   call site associated with it *)
let maybe_activate t n (taint : Taint.t) =
  if taint.Taint.active then taint
  else
    match taint.Taint.activation with
    | Some a when Icfg.equal_node a n || is_act_site t ~activation:a n ->
        M.incr m_activations;
        Taint.activate taint ~at:n
    | _ -> taint

(* ---------------- access-path helpers ---------------- *)

(* [arr] gates the constant-index precision pass (Config.array_index):
   when on, [a[c]] with a compile-time-constant index denotes the
   pseudo-field cell [a.<idx:c>]; every other index keeps the
   whole-array abstraction *)

let array_cell ~arr x i : AP.t =
  match i with
  | Stmt.Iconst (Stmt.CInt c) when arr -> AP.of_field x (AP.index_field c)
  | _ -> AP.of_local x (* whole-array abstraction *)

let ap_of_lvalue ~arr lv : AP.t =
  match lv with
  | Stmt.Llocal x -> AP.of_local x
  | Stmt.Lfield (x, f) -> AP.of_field x f
  | Stmt.Lstatic f -> AP.of_static f
  | Stmt.Larray (x, i) -> array_cell ~arr x i

(* access paths readable from an expression, for taint matching: a
   taint whose path extends one of these flows into the assignment *)
let aps_of_expr ~arr (e : Stmt.expr) : AP.t list =
  match e with
  | Stmt.Eimm (Stmt.Iloc y) -> [ AP.of_local y ]
  | Stmt.Eimm (Stmt.Iconst _) -> []
  | Stmt.Efield (y, f) -> [ AP.of_field y f ]
  | Stmt.Estatic f -> [ AP.of_static f ]
  | Stmt.Earray (y, i) -> [ array_cell ~arr y i ]
  | Stmt.Ebinop (_, a, b) ->
      List.filter_map
        (function Stmt.Iloc y -> Some (AP.of_local y) | Stmt.Iconst _ -> None)
        [ a; b ]
  | Stmt.Eunop (_, a) | Stmt.Ecast (_, a) | Stmt.Einstanceof (a, _) ->
      List.filter_map
        (function Stmt.Iloc y -> Some (AP.of_local y) | Stmt.Iconst _ -> None)
        [ a ]
  | Stmt.Elength y -> [ AP.of_local y ]
  | Stmt.Enew _ | Stmt.Enewarray _ | Stmt.Einvoke _ -> []

(* a single-valued alias-preserving view of the rhs, used by the
   backward analysis: only expressions that denote a heap location or
   a copy can be rewritten through *)
let alias_ap_of_expr ~arr (e : Stmt.expr) : AP.t option =
  match e with
  | Stmt.Eimm (Stmt.Iloc y) -> Some (AP.of_local y)
  | Stmt.Ecast (_, Stmt.Iloc y) -> Some (AP.of_local y)
  | Stmt.Efield (y, f) -> Some (AP.of_field y f)
  | Stmt.Estatic f -> Some (AP.of_static f)
  | Stmt.Earray (y, i) -> Some (array_cell ~arr y i)
  | _ -> None

(* under the array-index pass, a read through a *non-constant* index
   may return any cell: per-cell taints collapse onto the destination
   (drop the cell selector the rebase carried over) rather than keep a
   spurious [<idx:c>] selector on a non-array value *)
let widen_cell_suffix ~lap (ap : AP.t) : AP.t =
  let nl = List.length lap.AP.fields in
  let rec go i = function
    | [] -> []
    | f :: rest when i = nl && AP.is_index_field f -> rest
    | f :: rest -> f :: go (i + 1) rest
  in
  { ap with AP.fields = go 0 ap.AP.fields }

(* ---------------- backward spawning (Algorithm 1, line 16) -------- *)

(* spawn an alias search for the heap access path [ap] written at node
   [ni], under the forward context [cx] (context injection) *)
let spawn_alias_search t cx (ni : ninfo) (origin : Taint.t) ap =
  if t.cfg.Config.alias_search && not (AP.is_static ap) then begin
    M.incr m_alias_queries;
    let n = ni.ni_node in
    let cx =
      if t.cfg.Config.context_injection then cx
      else cctx t ni.ni_minfo Taint.Zero
    in
    let alias =
      if t.cfg.Config.activation_statements then
        Taint.inactive_alias origin ~ap ~activation:n ~at:n
      else
        (* ablation: aliases are born active (flow-insensitive
           Andromeda-style behaviour) *)
        Taint.active_alias origin ~ap ~at:n
    in
    propagate_bw ~kind:Prov.Alias t cx ni (Taint.T alias)
  end

(* whether the zero fact enters [callee] (see {!Call_tree.zero_enters}) *)
let zero_enters t (callee : minfo) =
  Option.is_some callee.mi_body && Call_tree.zero_enters t.trees callee.mi_key

(* ---------------- forward flow functions ---------------- *)

(* taints generated across an assignment for an incoming taint *)
let assign_gen t n lv e (taint : Taint.t) =
  let arr = (prec t).Config.array_index in
  let lap = ap_of_lvalue ~arr lv in
  (* non-constant array read under the array-index pass: the result
     may be any cell, so per-cell taints widen to the whole value *)
  let nonconst_read =
    arr
    &&
    match e with
    | Stmt.Earray (_, Stmt.Iconst (Stmt.CInt _)) -> false
    | Stmt.Earray _ -> true
    | _ -> false
  in
  let gen_from src_ap =
    match AP.rebase ~k:(k t) ~from:src_ap ~to_:lap taint.Taint.ap with
    | Some ap ->
        let ap = if nonconst_read then widen_cell_suffix ~lap ap else ap in
        [ Taint.derive taint ~ap ~at:n ]
    | None ->
        (* a tainted value reachable *below* the read path also flows:
           reading x.f when x is tainted yields a tainted value (and
           operators collapse to a whole-value taint) *)
        if AP.has_prefix ~prefix:taint.Taint.ap src_ap then
          [ Taint.derive taint ~ap:lap ~at:n ]
        else []
  in
  List.concat_map gen_from (aps_of_expr ~arr e)

(* parameter-source taints generated at [ni] under the zero fact
   (callback parameter sources such as onLocationChanged); the result
   is node-constant, so it is computed once and cached *)
let zero_gen t (ni : ninfo) =
  match ni.ni_zero_gen with
  | Some g -> g
  | None ->
      let n = ni.ni_node in
      let stmt = ni.ni_stmt in
      let g =
        match stmt.Stmt.s_kind with
        | Stmt.Identity (l, Stmt.Iparam i) -> (
            let cls = n.Icfg.n_method.Mkey.mk_class in
            let mname = n.Icfg.n_method.Mkey.mk_name in
            match Srcsink_mgr.param_source t.mgr ~cls ~mname with
            | Some (params, cat) when List.mem i params ->
                let source =
                  Taint.
                    {
                      si_category = cat;
                      si_node = n;
                      si_tag = stmt.Stmt.s_tag;
                      si_desc =
                        Printf.sprintf "parameter %d of %s.%s" i cls mname;
                    }
                in
                [ Taint.make ~ap:(AP.of_local l) ~source ~at:n () ]
            | _ -> [])
        | _ -> []
      in
      ni.ni_zero_gen <- Some g;
      g

(* must-alias query for the strong-update pass, lazily computing and
   caching the per-method partition dataflow *)
let must_alias_at (ni : ninfo) b x =
  let mi = ni.ni_minfo in
  match mi.mi_body with
  | None -> false
  | Some body ->
      let ma =
        match mi.mi_must_alias with
        | Some ma -> ma
        | None ->
            let ma = Fd_precision.Must_alias.analyze body in
            mi.mi_must_alias <- Some ma;
            ma
      in
      Fd_precision.Must_alias.must_alias ma ~at:ni.ni_node.Icfg.n_idx b x

(* forward flow across a non-call statement; returns outgoing facts
   and performs alias-search side effects *)
let normal_flow t cx (ni : ninfo) (fact : Taint.fact) : Taint.fact list =
  M.incr m_flow_normal;
  let n = ni.ni_node in
  let stmt = ni.ni_stmt in
  match fact with
  | Taint.Zero -> List.map (fun g -> Taint.T g) (zero_gen t ni)
  | Taint.T incoming -> (
      let taint = maybe_activate t n incoming in
      match stmt.Stmt.s_kind with
      | Stmt.Assign (lv, e) ->
          let killed =
            (* strong update on locals: x = ... kills taints rooted at
               x.  Heap locations are only strongly updated under the
               must-alias precision pass: a write x.f := e kills b.f...
               when b provably holds the same reference as x on every
               path reaching the write.  An alias whose activation
               statement is this write is what the write itself
               stores, so it survives; the test reads the incoming
               taint, as the activated copy carries no activation
               statement. *)
            match lv with
            | Stmt.Llocal x -> (
                match taint.Taint.ap.AP.base with
                | AP.Bloc b -> Stmt.equal_local b x
                | AP.Bstatic _ -> false)
            | Stmt.Lfield (x, f) when (prec t).Config.must_alias -> (
                match
                  (taint.Taint.ap.AP.base, taint.Taint.ap.AP.fields)
                with
                | AP.Bloc b, f0 :: _ ->
                    Types.equal_field_sig f0 f
                    && not
                         (Option.fold ~none:false ~some:(Icfg.equal_node n)
                            incoming.Taint.activation)
                    && must_alias_at ni b x
                | _ -> false)
            | _ -> false
          in
          let gens = assign_gen t n lv e taint in
          (* alias search for every taint newly written to the heap *)
          List.iter
            (fun (g : Taint.t) ->
              match lv with
              | Stmt.Lfield _ | Stmt.Larray _ ->
                  spawn_alias_search t cx ni g g.Taint.ap
              | Stmt.Llocal _ | Stmt.Lstatic _ -> ())
            gens;
          let survivors = if killed then [] else [ Taint.T taint ] in
          survivors @ List.map (fun g -> Taint.T g) gens
      | Stmt.Identity _ ->
          (* identity statements bind parameters; call_flow already
             rebased taints onto the parameter locals, so facts pass
             through (nothing can be rooted at the bound local before
             its definition) *)
          [ Taint.T taint ]
      | Stmt.If _ | Stmt.Goto _ | Stmt.Nop | Stmt.Return _ | Stmt.Throw _ ->
          [ Taint.T taint ]
      | Stmt.InvokeStmt _ -> [ Taint.T taint ])

(* map caller facts into a callee (argument passing) *)
let call_flow t (ni : ninfo) (inv : Stmt.invoke) (callee : minfo)
    (fact : Taint.fact) : Taint.fact list =
  M.incr m_flow_call;
  match fact with
  | Taint.Zero -> if zero_enters t callee then [ Taint.Zero ] else []
  | Taint.T taint -> (
      (* no activation here: an activation associated with this call
         site fires only once the call has *completed*, i.e. on the
         call-to-return edge, not on entry into the callee *)
      match callee.mi_body with
      | None -> []
      | Some _ ->
          let n = ni.ni_node in
          let this_l = callee.mi_this and params = callee.mi_params in
          let mapped = ref [] in
          (* a static-rooted taint enters unchanged, and only a callee
             whose call tree touches its field: no other callee can
             read it, and static writes are never strong updates, so
             the call-to-return pass-through alone is exact.  An
             inactive one always enters, so [return_flow] sees every
             call that may complete its activation; an active one
             carries no activation and needs no such escape. *)
          (match taint.Taint.ap.AP.base with
          | AP.Bstatic f ->
              if
                (not taint.Taint.active)
                || Call_tree.touches_static t.trees callee.mi_key f
              then mapped := Taint.T taint :: !mapped
              else M.incr m_flow_call_static_skipped
          | AP.Bloc _ -> ());
          (* receiver -> @this *)
          (match (inv.Stmt.i_recv, this_l) with
          | Some r, Some tl -> (
              match
                AP.rebase ~k:(k t) ~from:(AP.of_local r)
                  ~to_:(AP.of_local tl) taint.Taint.ap
              with
              | Some ap -> mapped := Taint.T (Taint.derive taint ~ap ~at:n) :: !mapped
              | None -> ())
          | _ -> ());
          (* actuals -> formals *)
          List.iteri
            (fun i arg ->
              match arg with
              | Stmt.Iloc a -> (
                  match List.assoc_opt i params with
                  | Some p -> (
                      match
                        AP.rebase ~k:(k t) ~from:(AP.of_local a)
                          ~to_:(AP.of_local p) taint.Taint.ap
                      with
                      | Some ap ->
                          mapped :=
                            Taint.T (Taint.derive taint ~ap ~at:n) :: !mapped
                      | None -> ())
                  | None -> ())
              | Stmt.Iconst _ -> ())
            inv.Stmt.i_args;
          !mapped)

(* map callee exit facts back to the caller *)
let return_flow t ~call:(cni : ninfo) ~(callee : minfo) ~exit_ni:(eni : ninfo)
    (inv : Stmt.invoke) (fact : Taint.fact) : Taint.fact list =
  M.incr m_flow_return;
  match fact with
  | Taint.Zero -> []
  | Taint.T taint -> (
      match callee.mi_body with
      | None -> []
      | Some _ ->
          let c = cni.ni_node in
          (* activation association: if this taint's activation lies in
             the callee (transitively), completing this call implies the
             activation executed (Section 4.2).  Only inactive taints
             carry one, so only they register sites, as in FlowDroid. *)
          (match taint.Taint.activation with
          | Some a when act_method_implies t ~activation:a callee.mi_key ->
              node_set_add t.act_sites a c;
              mkey_set_add t.act_methods a c.Icfg.n_method
          | _ -> ());
          let this_l = callee.mi_this and params = callee.mi_params in
          let out = ref [] in
          let add taint' = out := taint' :: !out in
          if AP.is_static taint.Taint.ap then
            add (Taint.derive taint ~ap:taint.Taint.ap ~at:c);
          (* @this -> receiver: only heap mutations travel back *)
          (match (inv.Stmt.i_recv, this_l) with
          | Some r, Some tl when AP.length taint.Taint.ap > 0 -> (
              match
                AP.rebase ~k:(k t) ~from:(AP.of_local tl)
                  ~to_:(AP.of_local r) taint.Taint.ap
              with
              | Some ap -> add (Taint.derive taint ~ap ~at:c)
              | None -> ())
          | _ -> ());
          (* formals -> actuals: only field-bearing paths (a callee
             cannot reassign the caller's local itself) *)
          List.iteri
            (fun i arg ->
              match (arg, List.assoc_opt i params) with
              | Stmt.Iloc a, Some p when AP.length taint.Taint.ap > 0 -> (
                  match
                    AP.rebase ~k:(k t) ~from:(AP.of_local p)
                      ~to_:(AP.of_local a) taint.Taint.ap
                  with
                  | Some ap -> add (Taint.derive taint ~ap ~at:c)
                  | None -> ())
              | _ -> ())
            inv.Stmt.i_args;
          (* return value *)
          (match (eni.ni_stmt.Stmt.s_kind, cni.ni_stmt.Stmt.s_kind) with
          | Stmt.Return (Some (Stmt.Iloc rl)), Stmt.Assign (Stmt.Llocal x, _)
            -> (
              match
                AP.rebase ~k:(k t) ~from:(AP.of_local rl)
                  ~to_:(AP.of_local x) taint.Taint.ap
              with
              | Some ap -> add (Taint.derive taint ~ap ~at:c)
              | None -> ())
          | _ -> ());
          List.map (fun tt -> Taint.T tt) !out)

(* sink detection at a call site *)
let check_sink t cx (ni : ninfo) (ci : callinfo) (inv : Stmt.invoke)
    (fact : Taint.fact) =
  match fact with
  | Taint.Zero -> ()
  | Taint.T taint ->
      if taint.Taint.active then begin
        match ci.ci_sink with
        | None -> ()
        | Some cat ->
            let hits =
              List.exists
                (fun arg ->
                  match arg with
                  | Stmt.Iloc a -> (
                      match taint.Taint.ap.AP.base with
                      | AP.Bloc b -> Stmt.equal_local a b
                      | AP.Bstatic _ -> false)
                  | Stmt.Iconst _ -> false)
                inv.Stmt.i_args
            in
            if hits then
              report t ~cx ~taint ~source:taint.Taint.source
                ~sink_node:ni.ni_node ~sink_tag:ni.ni_stmt.Stmt.s_tag
                ~sink_cat:cat ()
      end

(* source generation at a call site (return-value and UI sources);
   the result is node-constant and cached in the callinfo *)
let gen_sources t (ni : ninfo) : Taint.t list =
  match Call_tree.call_source t.mgr (Option.get ni.ni_minfo.mi_body) ni.ni_stmt with
  | None -> []
  | Some (x, cat, desc) ->
      let n = ni.ni_node in
      let source =
        Taint.{ si_category = cat; si_node = n; si_tag = ni.ni_stmt.Stmt.s_tag;
                si_desc = desc }
      in
      [ Taint.make ~ap:(AP.of_local x) ~source ~at:n () ]

(* wrapper / native / default-model effects for one incoming fact *)
let library_effects t (ni : ninfo) ret_local (inv : Stmt.invoke) effects
    (fact : Taint.fact) : Taint.t list =
  match fact with
  | Taint.Zero -> []
  | Taint.T taint ->
      let n = ni.ni_node in
      let taint = maybe_activate t n taint in
      let arg_local i =
        match List.nth_opt inv.Stmt.i_args i with
        | Some (Stmt.Iloc a) -> Some a
        | _ -> None
      in
      let origin_matches (origin : Fd_frontend.Rules.origin) =
        let rooted l =
          match taint.Taint.ap.AP.base with
          | AP.Bloc b -> Stmt.equal_local b l
          | AP.Bstatic _ -> false
        in
        match origin with
        | Fd_frontend.Rules.From_recv -> (
            match inv.Stmt.i_recv with Some r -> rooted r | None -> false)
        | Fd_frontend.Rules.From_any_arg ->
            List.exists
              (function Stmt.Iloc a -> rooted a | Stmt.Iconst _ -> false)
              inv.Stmt.i_args
        | Fd_frontend.Rules.From_arg i -> (
            match arg_local i with Some a -> rooted a | None -> false)
      in
      let target_local (tgt : Fd_frontend.Rules.target) =
        match tgt with
        | Fd_frontend.Rules.To_ret -> ret_local
        | Fd_frontend.Rules.To_recv -> inv.Stmt.i_recv
        | Fd_frontend.Rules.To_arg i -> arg_local i
      in
      List.filter_map
        (fun (eff : Fd_frontend.Rules.effect) ->
          if origin_matches eff.Fd_frontend.Rules.eff_from then
            match target_local eff.Fd_frontend.Rules.eff_to with
            | Some l -> Some (Taint.derive taint ~ap:(AP.of_local l) ~at:n)
            | None -> None
          else None)
        effects

(* default model for un-modelled phantom/native methods: the return
   value becomes tainted if the receiver or any argument is (the
   paper's "neither entirely sound nor maximally precise, but the best
   practical approximation") — and for *native* methods additionally
   the arguments become tainted. *)
let default_library_effects ~native : Fd_frontend.Rules.effect list =
  let open Fd_frontend.Rules in
  let base =
    [ { eff_to = To_ret; eff_from = From_any_arg };
      { eff_to = To_ret; eff_from = From_recv } ]
  in
  if native then
    base
    @ [ { eff_to = To_arg 0; eff_from = From_any_arg };
        { eff_to = To_arg 1; eff_from = From_any_arg };
        { eff_to = To_arg 2; eff_from = From_any_arg } ]
  else base

let is_native_target t (inv : Stmt.invoke) =
  match
    Scene.resolve_concrete t.scene inv.Stmt.i_sig.Types.m_class
      (inv.Stmt.i_sig.Types.m_name, inv.Stmt.i_sig.Types.m_params)
  with
  | Some (_, m) -> m.Jclass.jm_native
  | None -> false

(* ---------------- forward solver main loop case: call node -------- *)

(* resolve the node-constant call-site data once: sink category,
   wrapper shortcut, return local, generated sources and the effect
   list applied on the call-to-return edge *)
let callinfo_of t (ni : ninfo) (inv : Stmt.invoke) =
  match ni.ni_call with
  | Some ci -> ci
  | None ->
      let ret_local =
        match ni.ni_stmt.Stmt.s_kind with
        | Stmt.Assign (Stmt.Llocal x, Stmt.Einvoke _) -> Some x
        | _ -> None
      in
      let wrapper = Srcsink_mgr.wrapper_effects t.wrappers t.mgr inv in
      let c2r =
        match wrapper with
        | Some effs -> Some effs
        | None ->
            if callees t ni = [] then
              (* un-analysable target: explicit native rule or the
                 default black-box model *)
              Some
                (match Srcsink_mgr.wrapper_effects t.natives t.mgr inv with
                | Some effs -> effs
                | None ->
                    default_library_effects ~native:(is_native_target t inv))
            else None
      in
      let ci =
        {
          ci_sink = Srcsink_mgr.sink t.mgr inv;
          ci_wrapper = wrapper;
          ci_ret = ret_local;
          ci_sources = gen_sources t ni;
          ci_c2r = c2r;
        }
      in
      ni.ni_call <- Some ci;
      ci

(* rewrite [m.invoke(thisArg, args...)] as the direct virtual call it
   resolves to (reflection precision pass): the first reflective
   argument becomes the receiver, the rest the actuals, so the
   standard [call_flow]/[return_flow] parameter mapping lines up *)
let transform_reflective (inv : Stmt.invoke) : Stmt.invoke option =
  match inv.Stmt.i_args with
  | this_arg :: rest ->
      let recv =
        match this_arg with Stmt.Iloc l -> Some l | Stmt.Iconst _ -> None
      in
      Some { inv with Stmt.i_kind = Stmt.Virtual; i_recv = recv; i_args = rest }
  | [] -> None

(* the transformed invoke to map callee exit facts through: reflective
   edges return through the rewritten call, everything else through
   the syntactic one *)
let return_invoke t (c : ninfo) (callee_key : Mkey.t) (inv : Stmt.invoke) :
    Stmt.invoke =
  if
    (prec t).Config.reflection
    && List.exists (Mkey.equal callee_key)
         (Icfg.refl_callees t.icfg c.ni_node)
  then match transform_reflective inv with Some ri -> ri | None -> inv
  else inv

let process_call_fw t cx (ni : ninfo) (fact : Taint.fact) inv =
  let ci = callinfo_of t ni inv in
  check_sink t cx ni ci inv fact;
  let callee_list = callees t ni in
  let node_succs = succs t ni in
  (* descend into analysable callees unless a wrapper shortcut is
     defined (wrappers are exclusive, Section 5); [call_inv] is the
     invoke to map arguments through (the transformed one for
     reflective edges) *)
  let descend call_inv (callee : minfo) =
    let entry_facts = call_flow t ni call_inv callee fact in
    if entry_facts <> [] then begin
      let s_callee = start_ni t callee in
      List.iter
        (fun d3 ->
          let cx_callee = cctx t callee d3 in
          add_incoming t cx_callee (ni, cx);
          if not (inject_stored_summaries t cx_callee) then
            propagate_fw ~kind:Prov.Call t cx_callee s_callee d3;
          List.iter
            (fun (e, d4) ->
              M.incr m_summary_apps;
              let rets =
                return_flow t ~call:ni ~callee ~exit_ni:e call_inv d4
              in
              List.iter
                (fun r ->
                  List.iter
                    (fun d5 ->
                      (match d5 with
                      | Taint.T tt when AP.length tt.Taint.ap > 0 ->
                          spawn_alias_search t cx ni tt tt.Taint.ap
                      | _ -> ());
                      propagate_fw ~kind:Prov.Return t cx r d5)
                    rets)
                node_succs)
            (listed t.fw.s_summaries cx_callee))
        entry_facts
    end
  in
  if callee_list <> [] && ci.ci_wrapper = None then
    List.iter (descend inv) callee_list;
  (* reflective descent (precision pass): constant-string-resolved
     [Method.invoke] targets, analysed through the transformed direct
     invoke *)
  (if (prec t).Config.reflection then
     match Icfg.refl_callees t.icfg ni.ni_node with
     | [] -> ()
     | refl_keys -> (
         match transform_reflective inv with
         | None -> ()
         | Some rinv ->
             List.iter (fun mk -> descend rinv (minfo_of t mk)) refl_keys));
  (* call-to-return: sources, library models, pass-through *)
  M.incr m_flow_c2r;
  let derived =
    match fact with
    | Taint.Zero -> List.map (fun g -> Taint.T g) ci.ci_sources
    | Taint.T _ -> (
        match ci.ci_c2r with
        | Some effs ->
            List.map
              (fun g -> Taint.T g)
              (library_effects t ni ci.ci_ret inv effs fact)
        | None -> [])
  in
  (* heap writes performed by library effects (e.g. putExtra tainting
     the receiver) get alias searches too *)
  List.iter
    (function
      | Taint.T (g : Taint.t) -> (
          match g.Taint.ap.AP.base with
          | AP.Bloc l ->
              let is_ret =
                match ci.ci_ret with
                | Some x -> Stmt.equal_local x l
                | None -> false
              in
              if not is_ret then spawn_alias_search t cx ni g g.Taint.ap
          | AP.Bstatic _ -> ())
      | Taint.Zero -> ())
    derived;
  let pass_through =
    match fact with
    | Taint.Zero -> []
    | Taint.T taint ->
        let taint = maybe_activate t ni.ni_node taint in
        let killed =
          match (ci.ci_ret, taint.Taint.ap.AP.base) with
          | Some x, AP.Bloc b -> Stmt.equal_local x b
          | _ -> false
        in
        if killed then [] else [ Taint.T taint ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun d -> propagate_fw ~kind:Prov.Call_to_return t cx r d)
        (pass_through @ derived))
    node_succs

let process_exit_fw t cx (ni : ninfo) (fact : Taint.fact) =
  if add_summary t t.fw cx (ni, fact) then begin
    List.iter
      (fun ((c : ninfo), caller_cx) ->
        match c.ni_invoke with
        | None -> ()
        | Some inv ->
            let inv = return_invoke t c cx.cc_proc.mi_key inv in
            let rets =
              return_flow t ~call:c ~callee:cx.cc_proc ~exit_ni:ni inv fact
            in
            List.iter
              (fun r ->
                List.iter
                  (fun d5 ->
                    (match d5 with
                    | Taint.T tt when AP.length tt.Taint.ap > 0 ->
                        spawn_alias_search t caller_cx c tt tt.Taint.ap
                    | _ -> ());
                    propagate_fw ~kind:Prov.Return t caller_cx r d5)
                  rets)
              (succs t c))
      (listed t.fw.s_incoming cx);
    (* <clinit> exits reached through first-use edges (precision pass)
       have no syntactic call site: relay static-rooted facts,
       context-insensitively, to the successors of every first-use
       site (a class initializer runs at most once, before any of
       them) *)
    if
      (prec t).Config.clinit
      && String.equal ni.ni_node.Icfg.n_method.Mkey.mk_name "<clinit>"
    then
      match fact with
      | Taint.T taint when AP.is_static taint.Taint.ap ->
          List.iter
            (fun site ->
              let sni = ninfo_of t site in
              let site_cx = cctx t sni.ni_minfo Taint.Zero in
              List.iter
                (fun s -> propagate_fw ~kind:Prov.Return t site_cx s fact)
                (succs t sni))
            (Icfg.clinit_sites t.icfg ni.ni_node.Icfg.n_method)
      | _ -> ()
  end

(* first-use <clinit> placement (precision pass): seed the class
   initializer at its trigger site.  The edge is context-insensitive —
   <clinit> runs at most once per class — so the zero fact and
   static-rooted taints enter under the callee's own context; exits
   are handled by {!process_exit_fw} above. *)
let process_clinit_fw t (ni : ninfo) (fact : Taint.fact) =
  match Icfg.clinit_callees t.icfg ni.ni_node with
  | [] -> ()
  | keys ->
      let entry =
        match fact with
        | Taint.Zero -> Some fact
        | Taint.T taint ->
            if AP.is_static taint.Taint.ap then Some fact else None
      in
      List.iter
        (fun mk ->
          let callee = minfo_of t mk in
          match (callee.mi_body, entry) with
          | Some _, Some d ->
              propagate_fw ~kind:Prov.Call t (cctx t callee d)
                (start_ni t callee) d
          | _ -> ())
        keys

(* whether the zero fact does work at [ni]: a parameter source, a
   source call, a callee it enters, or a first-use [<clinit>] edge.
   Exits never need it ([return_flow] maps it to nothing).  Counts the
   analysable callees it stays out of. *)
let does_zero_work t (ni : ninfo) =
  let clinit =
    (prec t).Config.clinit && Icfg.clinit_callees t.icfg ni.ni_node <> []
  in
  match ni.ni_invoke with
  | None -> clinit || zero_gen t ni <> []
  | Some inv ->
      let ci = callinfo_of t ni inv in
      let enters callees =
        let n = List.length (List.filter (zero_enters t) callees) in
        M.add m_flow_call_zero_skipped (List.length callees - n);
        n > 0
      in
      let direct = ci.ci_wrapper = None && enters (callees t ni) in
      let refl =
        (prec t).Config.reflection
        && enters
             (List.map (minfo_of t) (Icfg.refl_callees t.icfg ni.ni_node))
      in
      clinit || ci.ci_sources <> [] || direct || refl

(* [zero_work t mi] is the nodes of [mi] where the zero fact does work,
   in breadth-first order over the body's successors from statement 0,
   found once per method.  Each comes with the kind of the edge that
   first reaches it in that order, the provenance kind the zero fact
   had there when it walked every node, so witnesses read as before.
   The walk runs on statement indices; a node view is made only where
   {!does_zero_work} can hold: a parameter identity, an invoke, or a
   first-use [<clinit>] site. *)
let zero_work t (mi : minfo) =
  match mi.mi_zero_work with
  | Some w -> w
  | None ->
      let body = Option.get mi.mi_body in
      let n = Body.length body in
      let clinit = (prec t).Config.clinit in
      (* [order] is the breadth-first queue, each index queued once;
         [via_call.[i]] marks an [i] first reached from an invoke *)
      let order = Array.make n 0 and via_call = Bytes.make n '\000' in
      let seen = Bytes.make n '\000' in
      Bytes.set seen 0 '\001';
      let head = ref 0 and tail = ref 1 and work = ref [] in
      let rec enqueue invoke = function
        | [] -> ()
        | j :: rest ->
            if Bytes.get seen j = '\000' then begin
              Bytes.set seen j '\001';
              if invoke then Bytes.set via_call j '\001';
              order.(!tail) <- j;
              incr tail
            end;
            enqueue invoke rest
      in
      while !head < !tail do
        let i = order.(!head) in
        incr head;
        let stmt = Body.stmt body i in
        let invoke = Stmt.invoke_of stmt <> None in
        (if
           invoke
           || (match stmt.Stmt.s_kind with
              | Stmt.Identity (_, Stmt.Iparam _) -> true
              | _ -> false)
           || clinit
              && Callgraph.clinit_callees t.icfg.Icfg.cg mi.mi_key i <> []
         then
           let ni = ni_at t mi i in
           if does_zero_work t ni then
             (* the start node's kind is never used: nothing jumps to
                it *)
             let kind =
               if Bytes.get via_call i = '\001' then Prov.Call_to_return
               else Prov.Normal
             in
             work := (ni, kind) :: !work);
        enqueue invoke (Body.succs body i)
      done;
      let w = List.rev !work in
      mi.mi_zero_work <- Some w;
      w

(* The zero fact is never propagated to successors or across
   call-to-return: a method's start node processes it like any fact,
   then it jumps straight to the other nodes where it does work. *)
let process_fw t cx (ni : ninfo) fact =
  if (prec t).Config.clinit then process_clinit_fw t ni fact;
  (if ni.ni_is_exit then
     (* sinks can also sit on an exit-adjacent call; exits themselves
        carry no invoke in µJimple *)
     process_exit_fw t cx ni fact
   else
     match ni.ni_invoke with
     | Some inv -> process_call_fw t cx ni fact inv
     | None ->
         let outs = normal_flow t cx ni fact in
         List.iter
           (fun m -> List.iter (fun d -> propagate_fw t cx m d) outs)
           (succs t ni));
  match fact with
  | Taint.Zero when ni.ni_node.Icfg.n_idx = 0 ->
      List.iter
        (fun (w, kind) ->
          if w != ni then propagate_fw ~kind t cx w Taint.Zero)
        (zero_work t ni.ni_minfo)
  | _ -> ()

(* ---------------- backward solver (Algorithm 2) ---------------- *)

(* inject a discovered alias into the forward analysis at node [ni] *)
let inject_fw t cx (ni : ninfo) (alias : Taint.t) =
  M.incr m_fw_injections;
  propagate_fw ~kind:Prov.Inject t cx ni (Taint.T alias)

(* backward descent into a call's callees for a fact rooted at the
   receiver or an actual argument: the callee may have created aliases
   involving those objects (Algorithm 2, call-statement case) *)
let backward_descend_args t cx (mni : ninfo) (inv : Stmt.invoke)
    (taint : Taint.t) =
  List.iter
    (fun (callee : minfo) ->
      match callee.mi_body with
      | None -> ()
      | Some _ ->
          let m = mni.ni_node in
          let this_l = callee.mi_this and params = callee.mi_params in
          let descend ap_from ap_to =
            match
              AP.rebase ~k:(k t) ~from:ap_from ~to_:ap_to taint.Taint.ap
            with
            | Some ap ->
                let d = Taint.derive taint ~ap ~at:m in
                let cx_callee = cctx t callee (Taint.T d) in
                add_incoming t cx_callee (mni, cx);
                List.iter
                  (fun e_ni ->
                    propagate_bw ~kind:Prov.Backward t cx_callee e_ni
                      (Taint.T d))
                  (exit_nis t callee)
            | None -> ()
          in
          (match (inv.Stmt.i_recv, this_l) with
          | Some r, Some tl when AP.length taint.Taint.ap > 0 ->
              descend (AP.of_local r) (AP.of_local tl)
          | _ -> ());
          List.iteri
            (fun i arg ->
              match (arg, List.assoc_opt i params) with
              | Stmt.Iloc a, Some p when AP.length taint.Taint.ap > 0 ->
                  descend (AP.of_local a) (AP.of_local p)
              | _ -> ())
            inv.Stmt.i_args)
    (callees t mni)

(* backward flow across the *predecessor* statement [m] for fact
   valid before [n]; may inject forward facts and descend into
   callees *)
let backward_step t cx (mni : ninfo) (taint : Taint.t) =
  M.incr m_bw_steps;
  let m = mni.ni_node in
  let stmt = mni.ni_stmt in
  let arr = (prec t).Config.array_index in
  let continue_with tt = propagate_bw ~kind:Prov.Backward t cx mni (Taint.T tt) in
  match stmt.Stmt.s_kind with
  | Stmt.Assign (lv, e) -> (
      let lap = ap_of_lvalue ~arr lv in
      if AP.has_prefix ~prefix:lap taint.Taint.ap then begin
        (* the written location is (a prefix of) our alias: rewrite
           through the assignment *)
        match e with
        | Stmt.Einvoke _ ->
            (* value came from a callee's return: descend (Algorithm 2,
               call-statement case) *)
            List.iter
              (fun (callee : minfo) ->
                match callee.mi_body with
                | None -> ()
                | Some _ ->
                    List.iter
                      (fun (e_ni : ninfo) ->
                        match e_ni.ni_stmt.Stmt.s_kind with
                        | Stmt.Return (Some (Stmt.Iloc rl)) -> (
                            match
                              AP.rebase ~k:(k t) ~from:lap
                                ~to_:(AP.of_local rl) taint.Taint.ap
                            with
                            | Some ap ->
                                let d = Taint.derive taint ~ap ~at:m in
                                let cx_callee = cctx t callee (Taint.T d) in
                                add_incoming t cx_callee (mni, cx);
                                propagate_bw ~kind:Prov.Backward t cx_callee
                                  e_ni (Taint.T d)
                            | None -> ())
                        | _ -> ())
                      (exit_nis t callee))
              (callees t mni)
        | Stmt.Enew _ | Stmt.Enewarray _ ->
            (* freshly allocated: nothing aliases it upstream *)
            ()
        | _ -> (
            match alias_ap_of_expr ~arr e with
            | Some rap -> (
                match
                  AP.rebase ~k:(k t) ~from:lap ~to_:rap taint.Taint.ap
                with
                | Some ap ->
                    let d = Taint.derive taint ~ap ~at:m in
                    (* found an upstream alias: continue the search and
                       hand it to the forward analysis (Algorithm 2,
                       line 17) *)
                    inject_fw t cx mni d;
                    continue_with d
                | None -> ())
            | None ->
                (* rhs is a constant or operator result: value created
                   here *)
                ())
      end
      else begin
        (* unrelated write; but the rhs may *read* our alias path,
           making the lhs a downstream alias (Figure 2, step 7:
           b = a.g with fact a.g.f gives alias b.f).  The alias holds
           only *after* [m] (the statement defines it), so the forward
           injection lands on [m]'s successors; and the new alias is
           itself searched backward so chains of heap assignments
           (o.a = c1; c1.a = c2; ...) compose. *)
        (match alias_ap_of_expr ~arr e with
        | Some rap -> (
            match AP.rebase ~k:(k t) ~from:rap ~to_:lap taint.Taint.ap with
            | Some ap ->
                let d = Taint.derive taint ~ap ~at:m in
                List.iter (fun s -> inject_fw t cx s d) (succs t mni);
                continue_with d
            | None -> ())
        | None -> ());
        (* a call whose result is stored elsewhere may still have
           mutated our alias's object through the arguments *)
        (match e with
        | Stmt.Einvoke inv -> backward_descend_args t cx mni inv taint
        | _ -> ());
        (* does this statement *define* our base outright? then the
           path does not exist upstream *)
        let killed =
          match lv with
          | Stmt.Llocal x -> (
              match taint.Taint.ap.AP.base with
              | AP.Bloc b -> Stmt.equal_local b x
              | AP.Bstatic _ -> false)
          | _ -> false
        in
        if not killed then continue_with taint
      end)
  | Stmt.InvokeStmt inv ->
      (* a call the fact merely passes: descend with facts rooted at
         the receiver or actuals *)
      backward_descend_args t cx mni inv taint;
      continue_with taint
  | Stmt.Identity _ | Stmt.If _ | Stmt.Goto _ | Stmt.Nop | Stmt.Return _
  | Stmt.Throw _ ->
      continue_with taint

let process_bw t cx (ni : ninfo) (fact : Taint.fact) =
  match fact with
  | Taint.Zero -> ()
  | Taint.T taint ->
      if ni.ni_node.Icfg.n_idx = 0 then begin
        (* Algorithm 2, method's-first-statement case: hand over to the
           forward analysis (which owns all returning into callers) and
           kill the backward fact *)
        ignore (add_summary t t.bw cx (ni, fact));
        inject_fw t cx ni taint
      end
      else List.iter (fun m -> backward_step t cx m taint) (preds t ni)

(* ---------------- driver ---------------- *)

(* live byte sizes for the gauges.  The flat pair sets and the
   worklist report their exact allocated words; the summary and
   incoming lists are estimated per binding (ref + bucket cell, 6
   words) and per entry (cons cell + pair, 6 words), without the
   tables' bucket arrays or the shared node/fact/context values.
   Interned facts are estimated at ~16 words each. *)
let bytes_of_words w = w * (Sys.word_size / 8)

let solver_bytes s =
  let lists tbl =
    Int_tbl.fold (fun _ cell acc -> acc + 6 + (6 * List.length !cell)) tbl 0
  in
  bytes_of_words
    (Pair_set.words s.s_edges + Pair_set.words s.s_sum_seen
   + Pair_set.words s.s_inc_seen + Int_fifo.words s.s_work
   + lists s.s_summaries + lists s.s_incoming)

let publish_memory_gauges t =
  M.set_int g_bytes_fw (solver_bytes t.fw);
  M.set_int g_bytes_bw (solver_bytes t.bw);
  M.set_int g_bytes_facts (bytes_of_words (Fact_pool.size t.facts * 16))

(** [run t ~entries] seeds the zero fact at each entry method and runs
    both solvers to exhaustion (or to the propagation budget). *)
let run t ~entries =
  let pop_item solver process =
    let cx = t.cctx_by_id.(Int_fifo.pop solver.s_work) in
    let ni = t.ninfo_by_id.(Int_fifo.pop solver.s_work) in
    let fid = Int_fifo.pop solver.s_work in
    let fw = solver == t.fw in
    M.incr m_worklist_pops;
    Fd_obs.Ring.push t.flight
      (if fw then ev_fw_pop else ev_bw_pop)
      ni.ni_id fid;
    t.ext.pop_begin ~fw ~node:ni.ni_id ~fact:fid;
    process t cx ni (fact_of t fid);
    t.ext.pop_end ()
  in
  let rec loop () =
    (* cooperative stop: once the budget trips (cap, deadline or
       cancellation) the remaining worklist is abandoned — results so
       far stay valid as a partial under-approximation *)
    if Fd_resilience.Budget.stopped t.budget then ()
    else if not (Int_fifo.is_empty t.fw.s_work) then begin
      pop_item t.fw process_fw;
      loop ()
    end
    else if not (Int_fifo.is_empty t.bw.s_work) then begin
      pop_item t.bw process_bw;
      loop ()
    end
  in
  (* a crash, in seeding too, leaves with the solve's post-mortem *)
  (try
     List.iter
       (fun m ->
         let start = start_ni t (minfo_of t m) in
         Fd_obs.Ring.push t.flight ev_seed start.ni_id 0;
         let cx = cctx t start.ni_minfo Taint.Zero in
         propagate_fw ~kind:Prov.Seed t cx start Taint.Zero)
       entries;
     loop ()
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     Fd_resilience.Barrier.reraise ~post_mortem:(post_mortem t) e bt);
  t.ext.finish
    ~complete:Fd_resilience.(Outcome.is_complete (Budget.outcome t.budget));
  (* publish pool statistics so the interning layer is observable *)
  M.set_int g_intern_facts (Fact_pool.size t.facts);
  M.set_int g_intern_fact_hits (Fact_pool.hits t.facts);
  M.set_int g_intern_fact_misses (Fact_pool.misses t.facts);
  M.set_int g_intern_nodes t.n_ninfos;
  M.set_int g_intern_methods t.n_minfos;
  M.set_int g_intern_ctxs t.n_cctxs;
  publish_memory_gauges t;
  t.findings <- List.sort compare_finding t.findings

(** [findings t] is the reported source-to-sink flows. *)
let findings t = t.findings

(* the node's fact ids, walked oldest first keeping each id's first
   occurrence, give its taints newest first by first propagation *)
let results_at t (n : Icfg.node) =
  let view =
    match Mkey.Tbl.find_opt t.minfos n.Icfg.n_method with
    | Some mi when n.Icfg.n_idx >= 0 && n.Icfg.n_idx < Array.length mi.mi_nodes
      ->
        mi.mi_nodes.(n.Icfg.n_idx)
    | _ -> None
  in
  match view with
  | None -> []
  | Some ni ->
      let seen = Int_tbl.create 16 in
      let acc = ref [] in
      for i = 0 to ni.ni_n_results - 1 do
        let fid = ni.ni_results.(i) in
        if not (Int_tbl.mem seen fid) then begin
          Int_tbl.replace seen fid ();
          match fact_of t fid with
          | Taint.T taint -> acc := taint :: !acc
          | Taint.Zero -> ()
        end
      done;
      !acc

(** [propagation_count t] is the number of path-edge propagations
    performed (the work metric reported by the benchmarks). *)
let propagation_count t = Fd_resilience.Budget.propagations t.budget

(** [outcome t] is the typed termination state of the solve:
    [Complete], or the budget's stop reason. *)
let outcome t = Fd_resilience.Budget.outcome t.budget
