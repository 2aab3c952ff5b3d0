(** The solver-extension record (see the interface). *)

open Fd_ir
open Fd_callgraph

type witness_step = {
  ws_node : Icfg.node;
  ws_stmt : string;
  ws_fact : string;
  ws_kind : string;
}

type view = {
  node : int -> Icfg.node;
  method_id : int -> int;
  stmt : int -> Stmt.t;
  fact : int -> Taint.fact;
  intern : Taint.fact -> int;
  iter_contexts : (int -> Mkey.t -> Taint.fact -> unit) -> unit;
  callers : int -> int list;
  exits : int -> (int * Taint.fact) list;
}

type t = {
  edge :
    fw:bool -> kind:Fd_obs.Provenance.kind -> node:int -> fact:int -> unit;
  pop_begin : fw:bool -> node:int -> fact:int -> unit;
  pop_end : unit -> unit;
  report :
    ctx:int ->
    fresh:bool ->
    source:Taint.source_info ->
    sink:Icfg.node ->
    tag:string option ->
    cat:Fd_frontend.Sourcesink.category ->
    witness_step list;
  lookup : ctx:int -> callee:Mkey.t -> entry:Taint.fact -> Summary.injection option;
  finish : complete:bool -> unit;
}

let none =
  {
    edge = (fun ~fw:_ ~kind:_ ~node:_ ~fact:_ -> ());
    pop_begin = (fun ~fw:_ ~node:_ ~fact:_ -> ());
    pop_end = (fun () -> ());
    report = (fun ~ctx:_ ~fresh:_ ~source:_ ~sink:_ ~tag:_ ~cat:_ -> []);
    lookup = (fun ~ctx:_ ~callee:_ ~entry:_ -> None);
    finish = (fun ~complete:_ -> ());
  }

(* one event's handler in [combine a b]: a side left at [none]'s no-op
   drops out, so a single listener is called directly *)
let pick noop a b both = if a == noop then b else if b == noop then a else both

let combine a b =
  if a == none then b
  else if b == none then a
  else
    {
      edge =
        pick none.edge a.edge b.edge (fun ~fw ~kind ~node ~fact ->
            a.edge ~fw ~kind ~node ~fact;
            b.edge ~fw ~kind ~node ~fact);
      pop_begin =
        pick none.pop_begin a.pop_begin b.pop_begin (fun ~fw ~node ~fact ->
            a.pop_begin ~fw ~node ~fact;
            b.pop_begin ~fw ~node ~fact);
      pop_end =
        pick none.pop_end a.pop_end b.pop_end (fun () ->
            a.pop_end ();
            b.pop_end ());
      report =
        pick none.report a.report b.report
          (fun ~ctx ~fresh ~source ~sink ~tag ~cat ->
            let wa = a.report ~ctx ~fresh ~source ~sink ~tag ~cat in
            let wb = b.report ~ctx ~fresh ~source ~sink ~tag ~cat in
            match wa with [] -> wb | _ -> wa);
      lookup =
        pick none.lookup a.lookup b.lookup (fun ~ctx ~callee ~entry ->
            match a.lookup ~ctx ~callee ~entry with
            | None -> b.lookup ~ctx ~callee ~entry
            | hit -> hit);
      finish =
        pick none.finish a.finish b.finish (fun ~complete ->
            a.finish ~complete;
            b.finish ~complete);
    }
