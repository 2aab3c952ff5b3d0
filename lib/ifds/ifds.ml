(** A generic IFDS solver.

    Implements the tabulation algorithm of Reps, Horwitz and Sagiv
    (POPL'95) for inter-procedural, finite, distributive subset
    problems, with the practical extensions of Naeem, Lhoták and
    Rodriguez (CC'10) that FlowDroid's solvers build on:

    - the exploded supergraph is never materialised; flow functions
      are applied on demand, so only facts that actually arise are
      computed;
    - *incoming sets* record which caller contexts entered each callee
      context, so end summaries can be mapped back precisely when they
      are discovered after the call was processed.

    A {e path edge} [⟨sp, d1⟩ → ⟨n, d2⟩] states: if fact [d1] holds at
    the start point [sp] of [n]'s procedure, then [d2] holds just
    before [n].  The solver maintains the set of path edges in a
    worklist-driven fixed point.

    Internally every proc, node and fact is hash-consed into a
    per-solver {!Fd_util.Intern} pool, so the tabulation tables are
    keyed by small integer tuples instead of deep structural values:
    one structural hash per distinct value, integer mixing afterwards.
    Pools are per-solver instance, so independent solves (including
    solves running on different domains) share nothing.

    The specialised bidirectional taint solver of the paper
    (Algorithms 1 and 2) lives in [Fd_core.Bidi]; this module is the
    textbook single-direction algorithm, used by the comparator
    baselines and as a reference implementation. *)

module type PROBLEM = sig
  type proc
  (** procedure identifiers *)

  type node
  (** program points (statements) *)

  type fact
  (** data-flow facts; must include a distinguished zero fact *)

  val proc_equal : proc -> proc -> bool
  val proc_hash : proc -> int
  val node_equal : node -> node -> bool
  val node_hash : node -> int
  val fact_equal : fact -> fact -> bool
  val fact_hash : fact -> int
  val zero : fact

  val proc_of : node -> proc
  (** the procedure containing a node *)

  val start_of : proc -> node
  (** the unique start point of a procedure *)

  val succs : node -> node list
  (** intra-procedural successors; for a call node these are its
      return sites *)

  val is_exit : node -> bool
  (** return/throw nodes *)

  val callees : node -> proc list
  (** resolved targets when [node] is a call with analysable targets;
      [[]] otherwise *)

  val normal_flow : node -> fact -> fact list
  (** flow across a non-call node to its successors *)

  val call_flow : node -> proc -> fact -> fact list
  (** flow from a call node into a callee (argument passing) *)

  val return_flow :
    call:node -> callee:proc -> exit:node -> return_site:node -> fact -> fact list
  (** flow from a callee exit back to a return site of the call *)

  val call_to_return_flow : node -> fact -> fact list
  (** flow across a call on the caller's side (facts untouched by the
      callee) *)
end

(* solver-wide metrics, shared with the specialised bidirectional
   solver in [Fd_core.Bidi] (both are IFDS tabulations): handles are
   resolved once so the hot-path cost is a single field increment *)
module M = Fd_obs.Metrics

let m_path_edges = M.counter "ifds.path_edges"
let m_worklist_pushes = M.counter "ifds.worklist_pushes"
let m_worklist_pops = M.counter "ifds.worklist_pops"
let m_dedup_hits = M.counter "ifds.worklist_dedup_hits"
let m_summaries = M.counter "ifds.summaries_installed"
let m_summary_apps = M.counter "ifds.summary_applications"
let m_flow_normal = M.counter "ifds.flow.normal"
let m_flow_call = M.counter "ifds.flow.call"
let m_flow_return = M.counter "ifds.flow.return"
let m_flow_c2r = M.counter "ifds.flow.call_to_return"
let g_intern_nodes = M.gauge "intern.ifds.nodes.size"
let g_intern_procs = M.gauge "intern.ifds.procs.size"
let g_intern_facts = M.gauge "intern.ifds.facts.size"
let g_intern_hits = M.gauge "intern.ifds.facts.hits"
let g_intern_misses = M.gauge "intern.ifds.facts.misses"
let g_bytes_tables = M.gauge "mem.ifds_tables.bytes"

module Make (P : PROBLEM) = struct
  module Node_pool = Fd_util.Intern.Make (struct
    type t = P.node

    let equal = P.node_equal
    let hash = P.node_hash
  end)

  module Proc_pool = Fd_util.Intern.Make (struct
    type t = P.proc

    let equal = P.proc_equal
    let hash = P.proc_hash
  end)

  module Fact_pool = Fd_util.Intern.Make (struct
    type t = P.fact

    let equal = P.fact_equal
    let hash = P.fact_hash
  end)

  module Int_tbl = Hashtbl.Make (Int)

  module I2_tbl = Hashtbl.Make (struct
    type t = int * int

    let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
    let hash (a, b) = Fd_util.Intern.combine a b
  end)

  module I4_tbl = Hashtbl.Make (struct
    type t = int * int * int * int

    let equal (a1, b1, c1, d1) (a2, b2, c2, d2) =
      a1 = a2 && b1 = b2 && c1 = c2 && d1 = d2

    let hash (a, b, c, d) =
      Fd_util.Intern.combine
        (Fd_util.Intern.combine (Fd_util.Intern.combine a b) c)
        d
  end)

  (* a worklist item: both pairs carry the canonical (pooled)
     representatives alongside their ids, so downstream flow functions
     hit the pools' [==] fast paths *)
  type item = {
    it_sp : P.node;
    it_d1 : P.fact;
    it_sp_id : int;
    it_d1_id : int;
    it_n : P.node;
    it_d2 : P.fact;
    it_n_id : int;
    it_d2_id : int;
  }

  type t = {
    nodes : Node_pool.pool;
    procs : Proc_pool.pool;
    facts : Fact_pool.pool;
    (* all discovered path edges, as id quadruples
       (sp, d1, n, d2) — membership is the only query the tabulation
       needs, so a flat set replaces the old two-level grouping *)
    path_edges : unit I4_tbl.t;
    (* facts per node (the final analysis result): node id -> facts,
       with a flat (node, fact) seen set for dedup *)
    results_facts : P.fact list ref Int_tbl.t;
    results_seen : unit I2_tbl.t;
    (* end summaries: (callee, entry fact) ids -> exit pairs *)
    end_summaries : (P.node * int * P.fact * int) list ref I2_tbl.t;
    sum_seen : unit I4_tbl.t;
    (* incoming: (callee, entry fact) ids -> caller-side (call, fact)
       pairs that entered that context *)
    incoming : (P.node * int * P.fact * int) list ref I2_tbl.t;
    inc_seen : unit I4_tbl.t;
    (* caller contexts per call-site pair: (call, fact) ids -> the
       (sp, d1) contexts whose path edges reached the call with that
       fact.  Indexed, where the previous representation required a
       full-table scan per discovered summary. *)
    incoming_ctx : (P.node * int * P.fact * int) list ref I2_tbl.t;
    ctx_seen : unit I4_tbl.t;
    worklist : item Queue.t;
    mutable edge_count : int;
    budget : Fd_resilience.Budget.t;
    flight : Fd_obs.Ring.t;
        (** the last seeds and pops: (seed, index, 0) and
            (pop, node id, fact id) *)
  }

  let create ?(budget = Fd_resilience.Budget.unlimited ()) () =
    {
      nodes = Node_pool.create ~size:512 ();
      procs = Proc_pool.create ~size:64 ();
      facts = Fact_pool.create ~size:512 ();
      path_edges = I4_tbl.create 1024;
      results_facts = Int_tbl.create 256;
      results_seen = I2_tbl.create 1024;
      end_summaries = I2_tbl.create 64;
      sum_seen = I4_tbl.create 256;
      incoming = I2_tbl.create 64;
      inc_seen = I4_tbl.create 256;
      incoming_ctx = I2_tbl.create 256;
      ctx_seen = I4_tbl.create 512;
      worklist = Queue.create ();
      edge_count = 0;
      budget;
      flight = Fd_obs.Ring.create ();
    }

  let int_cell tbl key =
    match Int_tbl.find_opt tbl key with
    | Some c -> c
    | None ->
        let c = ref [] in
        Int_tbl.replace tbl key c;
        c

  let i2_cell tbl key =
    match I2_tbl.find_opt tbl key with
    | Some c -> c
    | None ->
        let c = ref [] in
        I2_tbl.replace tbl key c;
        c

  let record_result t n_id d d_id =
    if not (I2_tbl.mem t.results_seen (n_id, d_id)) then begin
      I2_tbl.replace t.results_seen (n_id, d_id) ();
      let c = int_cell t.results_facts n_id in
      c := d :: !c
    end

  (* propagate: add the path edge if new and enqueue; a duplicate is a
     saved worklist push (counted) *)
  let propagate t ~sp ~sp_id ~d1 ~d1_id n d2 =
    let n_id = Node_pool.id t.nodes n in
    let n = Node_pool.value t.nodes n_id in
    let d2_id = Fact_pool.id t.facts d2 in
    let d2 = Fact_pool.value t.facts d2_id in
    let key = (sp_id, d1_id, n_id, d2_id) in
    if I4_tbl.mem t.path_edges key then M.incr m_dedup_hits
    else if Fd_resilience.Budget.tick t.budget then begin
      I4_tbl.replace t.path_edges key ();
      t.edge_count <- t.edge_count + 1;
      M.incr m_path_edges;
      M.incr m_worklist_pushes;
      record_result t n_id d2 d2_id;
      Queue.add
        {
          it_sp = sp;
          it_d1 = d1;
          it_sp_id = sp_id;
          it_d1_id = d1_id;
          it_n = n;
          it_d2 = d2;
          it_n_id = n_id;
          it_d2_id = d2_id;
        }
        t.worklist
    end

  let add_incoming t callee_key (n, n_id, d, d_id) =
    let cp, cf = callee_key in
    if not (I4_tbl.mem t.inc_seen (cp, cf, n_id, d_id)) then begin
      I4_tbl.replace t.inc_seen (cp, cf, n_id, d_id) ();
      let c = i2_cell t.incoming callee_key in
      c := (n, n_id, d, d_id) :: !c
    end

  let add_ctx t call_key (sp, sp_id, d1, d1_id) =
    let cn, cf = call_key in
    if not (I4_tbl.mem t.ctx_seen (cn, cf, sp_id, d1_id)) then begin
      I4_tbl.replace t.ctx_seen (cn, cf, sp_id, d1_id) ();
      let c = i2_cell t.incoming_ctx call_key in
      c := (sp, sp_id, d1, d1_id) :: !c
    end

  let add_summary t callee_key (e, e_id, d, d_id) =
    let cp, cf = callee_key in
    if I4_tbl.mem t.sum_seen (cp, cf, e_id, d_id) then false
    else begin
      I4_tbl.replace t.sum_seen (cp, cf, e_id, d_id) ();
      let c = i2_cell t.end_summaries callee_key in
      c := (e, e_id, d, d_id) :: !c;
      M.incr m_summaries;
      true
    end

  let process t (it : item) =
    let sp = it.it_sp
    and sp_id = it.it_sp_id
    and d1 = it.it_d1
    and d1_id = it.it_d1_id in
    let n = it.it_n and d2 = it.it_d2 in
    let propagate_src = propagate t ~sp ~sp_id ~d1 ~d1_id in
    let callees = P.callees n in
    if callees <> [] then begin
      (* a call node with analysable targets *)
      List.iter
        (fun callee ->
          M.incr m_flow_call;
          let callee_id = Proc_pool.id t.procs callee in
          let entry_facts = P.call_flow n callee d2 in
          let s_callee = P.start_of callee in
          List.iter
            (fun d3 ->
              let d3_id = Fact_pool.id t.facts d3 in
              let d3 = Fact_pool.value t.facts d3_id in
              let callee_key = (callee_id, d3_id) in
              (* remember the caller context for later summaries *)
              add_incoming t callee_key (n, it.it_n_id, d2, it.it_d2_id);
              add_ctx t (it.it_n_id, it.it_d2_id) (sp, sp_id, d1, d1_id);
              (* seed the callee *)
              let sc_id = Node_pool.id t.nodes s_callee in
              let s_callee = Node_pool.value t.nodes sc_id in
              propagate t ~sp:s_callee ~sp_id:sc_id ~d1:d3 ~d1_id:d3_id
                s_callee d3;
              (* apply already-known summaries *)
              match I2_tbl.find_opt t.end_summaries callee_key with
              | None -> ()
              | Some sums ->
                  List.iter
                    (fun (e, _, d4, _) ->
                      M.incr m_summary_apps;
                      List.iter
                        (fun r ->
                          M.incr m_flow_return;
                          List.iter
                            (fun d5 -> propagate_src r d5)
                            (P.return_flow ~call:n ~callee ~exit:e
                               ~return_site:r d4))
                        (P.succs n))
                    !sums)
            entry_facts)
        callees;
      (* call-to-return edge *)
      M.incr m_flow_c2r;
      List.iter
        (fun r ->
          List.iter (fun d3 -> propagate_src r d3) (P.call_to_return_flow n d2))
        (P.succs n)
    end
    else if P.is_exit n then begin
      (* install an end summary for this callee context and flow back
         into every caller context recorded in the incoming set *)
      let callee = P.proc_of n in
      let callee_id = Proc_pool.id t.procs callee in
      let callee_key = (callee_id, d1_id) in
      if add_summary t callee_key (n, it.it_n_id, d2, it.it_d2_id) then
        match I2_tbl.find_opt t.incoming callee_key with
        | None -> ()
        | Some inc ->
            List.iter
              (fun (c, c_id, _dc, dc_id) ->
                M.incr m_flow_return;
                (* the caller contexts that passed (c, dc) into this
                   callee, via the index (no table scan) *)
                let ctxs =
                  match I2_tbl.find_opt t.incoming_ctx (c_id, dc_id) with
                  | None -> []
                  | Some c -> !c
                in
                List.iter
                  (fun r ->
                    List.iter
                      (fun d5 ->
                        List.iter
                          (fun (spc, spc_id, d1c, d1c_id) ->
                            propagate t ~sp:spc ~sp_id:spc_id ~d1:d1c
                              ~d1_id:d1c_id r d5)
                          ctxs)
                      (P.return_flow ~call:c ~callee ~exit:n ~return_site:r d2))
                  (P.succs c))
              !inc
    end
    else begin
      (* plain intra-procedural node (includes calls with no analysable
         callee: their flow is the caller's business via normal_flow) *)
      M.incr m_flow_normal;
      List.iter
        (fun m ->
          List.iter (fun d3 -> propagate_src m d3) (P.normal_flow n d2))
        (P.succs n)
    end

  (* rough live byte accounting for the gauge: I4 entries cost key
     tuple + bucket (~10 words), I2-indexed association cells ~8 words
     per element *)
  let table_bytes t =
    let i4 tbl = I4_tbl.length tbl * 10 in
    let lists tbl =
      I2_tbl.fold (fun _ cell acc -> acc + 3 + (8 * List.length !cell)) tbl 0
    in
    (i4 t.path_edges + i4 t.sum_seen + i4 t.inc_seen + i4 t.ctx_seen
    + I2_tbl.length t.results_seen * 8
    + lists t.end_summaries + lists t.incoming + lists t.incoming_ctx)
    * (Sys.word_size / 8)

  (* flight-recorder event kinds *)
  let ev_seed = 0
  let ev_pop = 1

  (** [post_mortem t] renders the solve's last events and, when the
      budget stopped it, the stop *)
  let post_mortem t =
    Fd_resilience.Budget.post_mortem t.budget t.flight (fun kind n d ->
        if kind = ev_pop then Printf.sprintf "ifds.pop n%d d%d" n d
        else Printf.sprintf "ifds.seed #%d" n)

  (** [solve ?budget ~seeds ()] runs the tabulation to a fixed point
      (or until [budget] trips — check {!outcome} afterwards).  Each
      seed [(n, d)] asserts that [d] holds just before [n] (typically
      [(entry, zero)]). *)
  let solve ?budget ~seeds () =
    let t = create ?budget () in
    (try
       List.iteri
         (fun i (n, d) ->
           Fd_obs.Ring.push t.flight ev_seed i 0;
           let sp = P.start_of (P.proc_of n) in
           let sp_id = Node_pool.id t.nodes sp in
           let sp = Node_pool.value t.nodes sp_id in
           let z_id = Fact_pool.id t.facts P.zero in
           let z = Fact_pool.value t.facts z_id in
           (* context: the zero fact at the procedure start; seeds are
              unconditional *)
           propagate t ~sp ~sp_id ~d1:z ~d1_id:z_id n d;
           if not (P.fact_equal d P.zero) then
             propagate t ~sp ~sp_id ~d1:z ~d1_id:z_id n P.zero)
         seeds;
       while
         (not (Queue.is_empty t.worklist))
         && not (Fd_resilience.Budget.stopped t.budget)
       do
         let it = Queue.pop t.worklist in
         M.incr m_worklist_pops;
         Fd_obs.Ring.push t.flight ev_pop it.it_n_id it.it_d2_id;
         process t it
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       Fd_resilience.Barrier.reraise ~post_mortem:(post_mortem t) e bt);
    M.set_int g_intern_nodes (Node_pool.size t.nodes);
    M.set_int g_intern_procs (Proc_pool.size t.procs);
    M.set_int g_intern_facts (Fact_pool.size t.facts);
    M.set_int g_intern_hits (Fact_pool.hits t.facts);
    M.set_int g_intern_misses (Fact_pool.misses t.facts);
    M.set_int g_bytes_tables (table_bytes t);
    t

  (** [outcome t] is the typed termination state of the solve
      ([Complete] unless the budget tripped). *)
  let outcome t = Fd_resilience.Budget.outcome t.budget

  (** [results_at t n] is every fact that may hold just before [n]. *)
  let results_at t n =
    match Node_pool.find_id t.nodes n with
    | None -> []
    | Some n_id -> (
        match Int_tbl.find_opt t.results_facts n_id with
        | None -> []
        | Some c -> !c)

  (** [edge_count t] is the number of discovered path edges (a size
      metric for benchmarks). *)
  let edge_count t = t.edge_count
end
