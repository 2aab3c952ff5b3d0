(** Method bodies and their intra-procedural control-flow graphs.

    A body is an array of statements; control flows from each
    statement to its syntactic successor unless it branches or
    returns.  Successor and predecessor maps are computed once when
    the body is created — the backward alias analysis walks
    predecessors as often as the forward analysis walks successors. *)

open Stmt

type t = {
  locals : local list;
  stmts : Stmt.t array;
  succs : int list array;
  preds : int list array;
}

exception Malformed of string

let compute_succs stmts =
  let n = Array.length stmts in
  let check_target s tgt =
    if tgt < 0 || tgt >= n then
      raise
        (Malformed
           (Printf.sprintf "statement %d branches to invalid target %d"
              s.s_idx tgt))
  in
  Array.map
    (fun s ->
      match s.s_kind with
      | Return _ | Throw _ -> []
      | Goto tgt ->
          check_target s tgt;
          [ tgt ]
      | If (_, tgt) ->
          check_target s tgt;
          if s.s_idx + 1 >= n then
            raise
              (Malformed
                 (Printf.sprintf
                    "conditional at %d falls through past the end" s.s_idx));
          if tgt = s.s_idx + 1 then [ tgt ] else [ s.s_idx + 1; tgt ]
      | Assign _ | InvokeStmt _ | Identity _ | Nop ->
          if s.s_idx + 1 >= n then
            raise
              (Malformed
                 (Printf.sprintf "statement %d falls through past the end"
                    s.s_idx))
          else [ s.s_idx + 1 ])
    stmts

(** [create ~locals stmts] seals a statement list into a body,
    re-indexing statements and computing the CFG.
    @raise Malformed if a branch target is out of range or control can
    fall off the end of the body. *)
let create ~locals stmts =
  let stmts =
    Array.of_list (List.mapi (fun i s -> { s with s_idx = i }) stmts)
  in
  if Array.length stmts = 0 then raise (Malformed "empty body");
  let succs = compute_succs stmts in
  let preds = Array.make (Array.length stmts) [] in
  Array.iteri
    (fun i ss -> List.iter (fun j -> preds.(j) <- i :: preds.(j)) ss)
    succs;
  Array.iteri (fun j ps -> preds.(j) <- List.rev ps) preds;
  { locals; stmts; succs; preds }

let length b = Array.length b.stmts

(** [stmt b i] is the [i]-th statement. *)
let stmt b i = b.stmts.(i)

(** [succs b i] is the control-flow successors of statement [i]. *)
let succs b i = b.succs.(i)

(** [preds b i] is the control-flow predecessors of statement [i]. *)
let preds b i = b.preds.(i)

(** [iter b f] applies [f] to every statement in index order. *)
let iter b f = Array.iter f b.stmts

(** [fold b f acc] folds [f] over the statements in index order. *)
let fold b f acc = Array.fold_left (fun acc s -> f s acc) acc b.stmts

(** [forward b ~entry ~transfer ~join ~equal] is the in-state of every
    statement under a forward dataflow from statement 0: a FIFO
    worklist that requeues a successor only when its joined state
    changes. *)
let forward b ~entry ~transfer ~join ~equal =
  let state = Array.make (length b) None in
  if length b > 0 then begin
    let work = Queue.create () in
    let set j v =
      state.(j) <- Some v;
      Queue.add j work
    in
    set 0 entry;
    while not (Queue.is_empty work) do
      let i = Queue.pop work in
      let out = transfer b.stmts.(i) (Option.get state.(i)) in
      List.iter
        (fun j ->
          match state.(j) with
          | None -> set j out
          | Some prev ->
              let merged = join prev out in
              if not (equal merged prev) then set j merged)
        b.succs.(i)
    done
  end;
  state

(** [exit_stmts b] is the indices of all return/throw statements. *)
let exit_stmts b =
  fold b
    (fun s acc ->
      match s.s_kind with Return _ | Throw _ -> s.s_idx :: acc | _ -> acc)
    []
  |> List.rev

(** [find_tagged b tag] returns the statements carrying ground-truth
    marker [tag]. *)
let find_tagged b tag =
  fold b (fun s acc -> if s.s_tag = Some tag then s :: acc else acc) []
  |> List.rev

(** [param_locals b] maps parameter index to the local it is bound to
    by an identity statement, and the [@this] local if present. *)
let param_locals b =
  fold b
    (fun s (this, params) ->
      match s.s_kind with
      | Identity (l, Ithis _) -> (Some l, params)
      | Identity (l, Iparam n) -> (this, (n, l) :: params)
      | _ -> (this, params))
    (None, [])

(** [iter_uses f s] applies [f] to every local statement [s] reads,
    in any operand position: receivers, arguments, branch conditions,
    the base and index of a field or array store, and returned or
    thrown values.  A local read twice is passed twice. *)
let iter_uses f s =
  let imm = function Iloc x -> f x | Iconst _ -> () in
  let invoke inv =
    Option.iter f inv.i_recv;
    List.iter imm inv.i_args
  in
  match s.s_kind with
  | Assign (lv, e) -> (
      (match lv with
      | Llocal _ | Lstatic _ -> ()
      | Lfield (x, _) -> f x
      | Larray (x, i) ->
          f x;
          imm i);
      match e with
      | Eimm i | Eunop (_, i) | Ecast (_, i) | Einstanceof (i, _)
      | Enewarray (_, i) ->
          imm i
      | Efield (x, _) | Elength x -> f x
      | Earray (x, i) ->
          f x;
          imm i
      | Ebinop (_, a, b) ->
          imm a;
          imm b
      | Estatic _ | Enew _ -> ()
      | Einvoke inv -> invoke inv)
  | InvokeStmt inv -> invoke inv
  | If (c, _) ->
      imm c.c_left;
      imm c.c_right
  | Return (Some i) | Throw i -> imm i
  | Identity _ | Goto _ | Nop | Return None -> ()

(** [uses_local s l] holds when statement [s] reads local [l] (in any
    of the positions {!iter_uses} visits). *)
let uses_local s l =
  match iter_uses (fun x -> if equal_local x l then raise_notrace Exit) s with
  | () -> false
  | exception Exit -> true
