(* Flow-sensitive must-alias analysis as a partition dataflow.

   States are partitions of the locals, encoded as an [int array]
   mapping local index -> class representative, kept in a canonical
   form (classes numbered by first occurrence) so that structural
   equality detects fixpoints.  [None] encodes the unreachable state
   (top), which is the identity of the join. *)

open Fd_ir

type t = {
  ma_index : (string, int) Hashtbl.t;  (* local name -> dense index *)
  ma_in : int array option array;  (* per stmt: canonical partition *)
}

(* canonical form: relabel classes in order of first occurrence *)
let norm (p : int array) : int array =
  let map = Hashtbl.create 8 in
  let next = ref 0 in
  Array.map
    (fun c ->
      match Hashtbl.find_opt map c with
      | Some c' -> c'
      | None ->
          let c' = !next in
          incr next;
          Hashtbl.add map c c';
          c')
    p

(* partition intersection: same class in the result iff same class in
   both inputs *)
let join (a : int array) (b : int array) : int array =
  let map = Hashtbl.create 8 in
  let next = ref 0 in
  norm
    (Array.init (Array.length a) (fun i ->
         let key = (a.(i), b.(i)) in
         match Hashtbl.find_opt map key with
         | Some c -> c
         | None ->
             let c = !next in
             incr next;
             Hashtbl.add map key c;
             c))

(* transfer one statement over a copy of the state *)
let transfer index (s : Stmt.t) (p : int array) : int array =
  let isolate x =
    match Hashtbl.find_opt index x.Stmt.l_name with
    | None -> p
    | Some i ->
        let p' = Array.copy p in
        (* a fresh class id guaranteed unused: the array length *)
        p'.(i) <- Array.length p';
        norm p'
  in
  let copy_into x y =
    match
      ( Hashtbl.find_opt index x.Stmt.l_name,
        Hashtbl.find_opt index y.Stmt.l_name )
    with
    | Some i, Some j ->
        let p' = Array.copy p in
        p'.(i) <- p'.(j);
        norm p'
    | _ -> p
  in
  match s.Stmt.s_kind with
  | Stmt.Assign (Stmt.Llocal x, Stmt.Eimm (Stmt.Iloc y)) -> copy_into x y
  | Stmt.Assign (Stmt.Llocal x, Stmt.Ecast (_, Stmt.Iloc y)) -> copy_into x y
  | Stmt.Assign (Stmt.Llocal x, _) -> isolate x
  | Stmt.Identity (x, _) -> isolate x
  | _ -> p

let analyze (body : Body.t) : t =
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i (l : Stmt.local) ->
      if not (Hashtbl.mem index l.Stmt.l_name) then
        Hashtbl.add index l.Stmt.l_name i)
    body.Body.locals;
  let nl = List.length body.Body.locals in
  (* entry: all singletons — parameters may alias at runtime, but
     assuming they don't is the safe (fewer-aliases) direction *)
  let state =
    Body.forward body
      ~entry:(Array.init nl (fun i -> i))
      ~transfer:(transfer index) ~join ~equal:( = )
  in
  { ma_index = index; ma_in = state }

let must_alias t ~at (x : Stmt.local) (y : Stmt.local) =
  String.equal x.Stmt.l_name y.Stmt.l_name
  || at >= 0
     && at < Array.length t.ma_in
     &&
     match t.ma_in.(at) with
     | None -> false
     | Some p -> (
         match
           ( Hashtbl.find_opt t.ma_index x.Stmt.l_name,
             Hashtbl.find_opt t.ma_index y.Stmt.l_name )
         with
         | Some i, Some j -> p.(i) = p.(j)
         | _ -> false)
