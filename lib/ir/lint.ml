(** µJimple linter (see the .mli for the defect classes). *)

type kind =
  | Use_before_def
  | Duplicate_label
  | Undefined_label
  | Arity_mismatch

type issue = {
  li_kind : kind;
  li_where : string;
  li_line : int option;
  li_msg : string;
}

let string_of_kind = function
  | Use_before_def -> "use-before-def"
  | Duplicate_label -> "duplicate-label"
  | Undefined_label -> "undefined-label"
  | Arity_mismatch -> "arity-mismatch"

let string_of_issue i =
  match i.li_line with
  | Some l ->
      Printf.sprintf "%s:%d: %s: %s" i.li_where l (string_of_kind i.li_kind)
        i.li_msg
  | None ->
      Printf.sprintf "%s: %s: %s" i.li_where (string_of_kind i.li_kind)
        i.li_msg

(* ------------------------------------------------------------------ *)
(* token-level: branch labels                                          *)
(* ------------------------------------------------------------------ *)

(* The parser hard-fails a whole unit on a duplicate or undefined
   label, so these checks must run below the parser: a straight token
   scan.  Method bodies sit at brace depth 2 (class { method { … } }).
   A label definition is [IDENT COLON] at the start of a statement —
   [local x : T;] is safe because its statement-start token is the
   keyword [local], and [x := @this: C] is safe because that colon
   follows mid-statement tokens.  A label use is the identifier after
   [goto]. *)
let lint_source ?file src =
  let where = Option.value file ~default:"<memory>" in
  let lx = Lexer.create src in
  let buf = ref None in
  let next () =
    match !buf with
    | Some t ->
        buf := None;
        t
    | None -> (
        match Lexer.next lx with
        | tok -> Some (tok, Lexer.line lx)
        | exception Lexer.Lex_error _ -> None)
  in
  let peek () =
    match !buf with
    | Some t -> t
    | None ->
        let t = next () in
        buf := Some t;
        t
  in
  let issues = ref [] in
  let add kind line msg =
    issues := { li_kind = kind; li_where = where; li_line = Some line; li_msg = msg } :: !issues
  in
  let depth = ref 0 in
  let stmt_start = ref false in
  (* per-body label accounting, most recent first *)
  let defs = ref [] and uses = ref [] in
  let flush_body () =
    let defs = List.rev !defs and uses = List.rev !uses in
    List.iteri
      (fun i (n, line) ->
        match List.find_opt (fun (m, _) -> String.equal m n) (List.filteri (fun j _ -> j < i) defs) with
        | Some (_, first) ->
            add Duplicate_label line
              (Printf.sprintf "label %S already defined at line %d" n first)
        | None -> ())
      defs;
    List.iter
      (fun (n, line) ->
        if not (List.exists (fun (m, _) -> String.equal m n) defs) then
          add Undefined_label line (Printf.sprintf "goto to undefined label %S" n))
      uses
  in
  let running = ref true in
  while !running do
    match next () with
    | None | Some (Lexer.EOF, _) -> running := false
    | Some (tok, line) -> (
        match tok with
        | Lexer.LBRACE ->
            incr depth;
            if !depth = 2 then begin
              defs := [];
              uses := [];
              stmt_start := true
            end
        | Lexer.RBRACE ->
            if !depth = 2 then flush_body ();
            decr depth
        | Lexer.SEMI -> stmt_start := true
        | Lexer.IDENT "goto" when !depth = 2 ->
            (match peek () with
            | Some (Lexer.IDENT n, uline) ->
                ignore (next ());
                uses := (n, uline) :: !uses
            | _ -> ());
            stmt_start := false
        | Lexer.IDENT n when !depth = 2 && !stmt_start -> (
            match peek () with
            | Some (Lexer.COLON, _) ->
                ignore (next ());
                defs := (n, line) :: !defs
                (* the colon ends the label: the next token starts a
                   statement, so [stmt_start] stays true *)
            | _ -> stmt_start := false)
        | _ -> stmt_start := false)
  done;
  List.rev !issues

(* ------------------------------------------------------------------ *)
(* IR-level: use-before-def and call arity                             *)
(* ------------------------------------------------------------------ *)

module SS = Set.Make (String)

(* May-assigned forward dataflow (union join) from the entry: a use is
   flagged only when NO path from the entry carries a prior
   definition — branch-dependent initialisation stays silent, and so
   do never-defined locals (µJimple null-initialises them; the
   checked-in reproducers rely on that). *)
let lint_body ~where (b : Body.t) =
  let candidates =
    Body.fold b
      (fun s acc ->
        match Stmt.def_local s with
        | Some l -> SS.add l.Stmt.l_name acc
        | None -> acc)
      SS.empty
  in
  if SS.is_empty candidates then []
  else begin
    let n = Body.length b in
    let reach =
      Body.forward b ~entry:SS.empty
        ~transfer:(fun s assigned ->
          match Stmt.def_local s with
          | Some l -> SS.add l.Stmt.l_name assigned
          | None -> assigned)
        ~join:SS.union ~equal:SS.equal
    in
    let flagged = ref SS.empty and issues = ref [] in
    for i = 0 to n - 1 do
      match reach.(i) with
      | None -> () (* unreachable *)
      | Some assigned ->
          SS.iter
            (fun name ->
              if
                (not (SS.mem name assigned))
                && (not (SS.mem name !flagged))
                && Body.uses_local (Body.stmt b i) (Stmt.mk_local name)
              then begin
                flagged := SS.add name !flagged;
                issues :=
                  {
                    li_kind = Use_before_def;
                    li_where = where;
                    li_line = None;
                    li_msg =
                      Printf.sprintf
                        "local %s is read at statement %d before any \
                         assignment can reach it (first definition comes \
                         later)"
                        name i;
                  }
                  :: !issues
              end)
            candidates
    done;
    List.rev !issues
  end

let lint_classes (classes : Jclass.t list) =
  let by_name = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace by_name c.Jclass.c_name c) classes;
  (* every declared arity of [mname] along [cname]'s declared
     superclass chain; [] when no declared class in the chain names it
     (an inherited framework method — not ours to judge) *)
  let rec declared_arities cname mname fuel =
    if fuel = 0 then []
    else
      match Hashtbl.find_opt by_name cname with
      | None -> []
      | Some c ->
          List.filter_map
            (fun (m : Jclass.jmethod) ->
              if String.equal m.Jclass.jm_sig.Types.m_name mname then
                Some (List.length m.Jclass.jm_sig.Types.m_params)
              else None)
            c.Jclass.c_methods
          @ (match c.Jclass.c_super with
            | Some s -> declared_arities s mname (fuel - 1)
            | None -> [])
  in
  let issues = ref [] in
  let check_invoke ~where (inv : Stmt.invoke) =
    let cls = inv.Stmt.i_sig.Types.m_class in
    let name = inv.Stmt.i_sig.Types.m_name in
    if Hashtbl.mem by_name cls then begin
      let arities = declared_arities cls name 32 in
      let n_args = List.length inv.Stmt.i_args in
      if arities <> [] && not (List.mem n_args arities) then
        issues :=
          {
            li_kind = Arity_mismatch;
            li_where = where;
            li_line = None;
            li_msg =
              Printf.sprintf
                "call to %s#%s passes %d argument(s) but the declared \
                 overload(s) take %s"
                cls name n_args
                (String.concat " or "
                   (List.map string_of_int (List.sort_uniq compare arities)));
          }
          :: !issues
    end
  in
  List.iter
    (fun (c : Jclass.t) ->
      List.iter
        (fun (m : Jclass.jmethod) ->
          match m.Jclass.jm_body with
          | None -> ()
          | Some body ->
              let where =
                Printf.sprintf "%s.%s" c.Jclass.c_name
                  m.Jclass.jm_sig.Types.m_name
              in
              issues := List.rev_append (lint_body ~where body) !issues;
              Body.iter body (fun s ->
                  match s.Stmt.s_kind with
                  | Stmt.Assign (_, Stmt.Einvoke inv)
                  | Stmt.InvokeStmt inv ->
                      check_invoke ~where inv
                  | _ -> ()))
        c.Jclass.c_methods)
    classes;
  List.rev !issues
