(** What a method's call tree can do: the gates on the facts that enter
    a callee (see the interface). *)

open Fd_ir
open Fd_callgraph
module SS = Fd_frontend.Sourcesink

(* the static fields a method's code reads or writes, closed over its
   ICFG callees; [Any_field] once that closure takes a first-use
   [<clinit>] edge, whose exit relays every static fact to all the
   class's first-use sites *)
module Field_set = Set.Make (struct
  type t = Types.field_sig

  let compare (a : t) (b : t) =
    match String.compare a.Types.f_class b.Types.f_class with
    | 0 -> String.compare a.Types.f_name b.Types.f_name
    | c -> c
end)

type field_use = Any_field | Fields of Field_set.t

type tree = {
  ct_fields : field_use;  (** the static fields it reads or writes *)
  ct_gen : bool;  (** whether it generates a taint under the zero fact *)
}

type t = {
  cg : Callgraph.t;
  mgr : Srcsink_mgr.t;
  clinit : bool;
  refl : bool;
  injection : bool;
  memo : tree Mkey.Tbl.t;  (** method -> its tree, filled on demand *)
}

let create ~cg ~mgr ~(config : Config.t) =
  {
    cg;
    mgr;
    clinit = config.Config.precision.Config.clinit;
    refl = config.Config.precision.Config.reflection;
    injection = config.Config.context_injection;
    memo = Mkey.Tbl.create 16;
  }

let has_call_source mgr body (s : Stmt.t) =
  match s.Stmt.s_kind with
  | Stmt.Assign (Stmt.Llocal _, Stmt.Einvoke inv) ->
      Srcsink_mgr.return_source mgr inv <> None
      || Srcsink_mgr.ui_source mgr ~body ~at:s.Stmt.s_idx inv <> None
  | _ -> false

let call_source mgr body (s : Stmt.t) =
  match s.Stmt.s_kind with
  | Stmt.Assign (Stmt.Llocal x, Stmt.Einvoke inv) -> (
      match Srcsink_mgr.return_source mgr inv with
      | Some cat ->
          Some
            ( x,
              cat,
              Printf.sprintf "%s.%s()" inv.Stmt.i_sig.Types.m_class
                inv.Stmt.i_sig.Types.m_name )
      | None -> (
          match Srcsink_mgr.ui_source mgr ~body ~at:s.Stmt.s_idx inv with
          | Some ctl ->
              Some
                ( x,
                  SS.Password,
                  Printf.sprintf "password field %s (layout %s)"
                    ctl.Fd_frontend.Layout.ctl_name
                    ctl.Fd_frontend.Layout.ctl_layout )
          | None -> None))
  | _ -> None

let union_use a b =
  match (a, b) with
  | Any_field, _ | _, Any_field -> Any_field
  | Fields x, Fields y -> Fields (Field_set.union x y)

let union_tree a b =
  {
    ct_fields = union_use a.ct_fields b.ct_fields;
    ct_gen = a.ct_gen || b.ct_gen;
  }

(* A method's own body contributes the static fields it reads or
   writes, and generates under the zero fact when it has a source
   call, a parameter source, or (under the clinit pass) a first-use
   [<clinit>] edge: such an edge makes the fields "any field", because
   the [<clinit>] exit relays every static fact to all the class's
   first-use sites through each site method's zero context, so that
   context must exist.  The edge stays a property of the site, not a
   call-tree edge: followed, a [<clinit>] calling back into its
   trigger method would join that method's component.  The first
   query condenses the callees nobody has memoised yet
   ({!Scc.condense}), so every member of a recursive cycle gets the
   union of the cycle, and each method is walked at most once per
   solve. *)
let tree t mk =
  match Mkey.Tbl.find_opt t.memo mk with
  | Some ct -> ct
  | None ->
      let visit m =
        let fields = ref Field_set.empty and any = ref false
        and gen = ref false and succs = ref [] in
        let field f = fields := Field_set.add f !fields in
        (match Callgraph.body_of t.cg m with
        | exception Not_found -> ()
        | body ->
            if
              Srcsink_mgr.param_source t.mgr ~cls:m.Mkey.mk_class
                ~mname:m.Mkey.mk_name
              <> None
            then gen := true;
            Body.iter body (fun s ->
                let idx = s.Stmt.s_idx in
                (match s.Stmt.s_kind with
                | Stmt.Assign (lv, e) ->
                    (match lv with Stmt.Lstatic f -> field f | _ -> ());
                    (match e with Stmt.Estatic f -> field f | _ -> ())
                | _ -> ());
                if Stmt.invoke_of s <> None then begin
                  if has_call_source t.mgr body s then gen := true;
                  succs :=
                    List.rev_append (Callgraph.callees t.cg m idx) !succs
                end;
                if t.clinit && Callgraph.clinit_callees t.cg m idx <> [] then begin
                  any := true;
                  gen := true
                end;
                if t.refl then
                  succs :=
                    List.rev_append (Callgraph.refl_callees t.cg m idx) !succs));
        ( { ct_fields = (if !any then Any_field else Fields !fields);
            ct_gen = !gen },
          !succs )
      in
      (* a successor not yet memoised is in the members' component *)
      let finish members =
        List.fold_left
          (fun acc (_, own, succs) ->
            List.fold_left
              (fun acc c ->
                match Mkey.Tbl.find_opt t.memo c with
                | Some ct -> union_tree acc ct
                | None -> acc)
              (union_tree acc own) succs)
          { ct_fields = Fields Field_set.empty; ct_gen = false }
          members
      in
      Scc.condense t.memo ~visit ~finish mk

let touches_static t mk f =
  match (tree t mk).ct_fields with
  | Any_field -> true
  | Fields fs -> Field_set.mem f fs

let zero_enters t mk = (not t.injection) || (tree t mk).ct_gen
