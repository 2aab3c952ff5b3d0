(** Provenance as a solver extension (see the interface). *)

open Fd_ir
module Prov = Fd_obs.Provenance

let g_bytes = Fd_obs.Metrics.gauge "mem.provenance.bytes"

type state = {
  edges : Prov.t;
  zero : int;  (** the zero fact's id *)
  mutable cur_node : int;
      (** the popped pair: every propagation performed while processing
          it records this pair as its provenance predecessor *)
  mutable cur_fact : int;
}

(* the witness of the finding being reported: the sink check runs on
   the popped item, so the current pair IS the sink endpoint.  Its
   chain is trimmed of the zero-fact seed prefix down to the prefix's
   last element, the statement where the source taint was generated *)
let witness s (v : Solver_ext.view) =
  let is_zero (_, fid, _) = fid = s.zero in
  let rec trim = function
    | a :: (b :: _ as rest) when is_zero a && is_zero b -> trim rest
    | l -> l
  in
  List.map
    (fun (nid, fid, kind) ->
      {
        Solver_ext.ws_node = v.node nid;
        ws_stmt = Stmt.to_string (v.stmt nid);
        ws_fact = Taint.fact_to_string (v.fact fid);
        ws_kind = Prov.string_of_kind kind;
      })
    (trim (Prov.trace s.edges ~node:s.cur_node ~fact:s.cur_fact))

let make (v : Solver_ext.view) =
  let s =
    { edges = Prov.create (); zero = v.intern Taint.Zero; cur_node = -1;
      cur_fact = -1 }
  in
  {
    Solver_ext.none with
    edge =
      (fun ~fw:_ ~kind ~node ~fact ->
        (* the first taint derived from the zero fact is the source
           step, whatever edge carried it (assignment source, call-site
           return source, parameter source) *)
        let kind =
          if s.cur_fact = s.zero && fact <> s.zero && kind <> Prov.Seed then
            Prov.Source
          else kind
        in
        Prov.record s.edges ~node ~fact ~pred_node:s.cur_node
          ~pred_fact:s.cur_fact ~kind);
    pop_begin =
      (fun ~fw:_ ~node ~fact ->
        s.cur_node <- node;
        s.cur_fact <- fact);
    report =
      (fun ~ctx:_ ~fresh ~source:_ ~sink:_ ~tag:_ ~cat:_ ->
        if fresh then witness s v else []);
    finish =
      (fun ~complete:_ ->
        Fd_obs.Metrics.set_int g_bytes (Prov.approx_bytes s.edges));
  }

let off =
  {
    Solver_ext.none with
    finish = (fun ~complete:_ -> Fd_obs.Metrics.set_int g_bytes 0);
  }
