(** The per-method profiler as a solver extension (see the
    interface). *)

open Fd_callgraph
module P = Fd_obs.Profile

(* an all-float record, so storing the pop's start time allocates
   nothing *)
type clock = { mutable t0 : float }

(* [slot a i] is [a] grown to hold index [i] *)
let slot a i =
  if i < Array.length a then a else Array.append a (Array.make (i + 64) None)

let make (v : Solver_ext.view) =
  (* node id -> its method's cell, through method id -> cell, both
     resolved on first use *)
  let by_node = ref [||] and by_method = ref [||] in
  let resolve nid =
    let mid = v.method_id nid in
    by_method := slot !by_method mid;
    let c =
      match !by_method.(mid) with
      | Some _ as c -> c
      | None ->
          let c = Some (P.cell (Mkey.to_string (v.node nid).Icfg.n_method)) in
          !by_method.(mid) <- c;
          c
    in
    by_node := slot !by_node nid;
    !by_node.(nid) <- c;
    c
  in
  (* the cached [Some cell] of a node, shared, so holding it allocates
     nothing *)
  let cell nid =
    let a = !by_node in
    match if nid < Array.length a then a.(nid) else None with
    | Some _ as c -> c
    | None -> resolve nid
  in
  let cur = ref None and clock = { t0 = 0. } in
  {
    Solver_ext.none with
    edge =
      (fun ~fw:_ ~kind:_ ~node ~fact:_ -> Option.iter P.add_fact (cell node));
    pop_begin =
      (fun ~fw:_ ~node ~fact:_ ->
        cur := cell node;
        clock.t0 <- P.now ());
    pop_end =
      (fun () ->
        match !cur with
        | Some c -> P.add_pop c ~seconds:(P.now () -. clock.t0)
        | None -> ());
  }
