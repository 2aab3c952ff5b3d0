(** Parser for the textual µJimple format.

    Grammar (informally):

    {v
    unit     ::= class*
    class    ::= ("class"|"interface") NAME ["extends" NAME]
                 ["implements" NAME ("," NAME)*] "{" member* "}"
    member   ::= "field" NAME ":" TYPE ";"
               | mods "method" TYPE NAME "(" [TYPE ("," TYPE)*] ")"
                 (";" | "{" stmt* "}")
    mods     ::= ("static"|"abstract"|"native")*
    stmt     ::= "local" NAME ":" TYPE ";"
               | LABEL ":"
               | NAME ":=" "@this" ":" NAME ";"
               | NAME ":=" "@parameterN" ";"
               | lvalue "=" rhs [tag] ";"
               | call [tag] ";"
               | "if" imm CMP imm "goto" LABEL ";"
               | "goto" LABEL ";" | "return" [imm] ";" | "throw" imm ";"
               | "nop" ";"
    tag      ::= "@" STRING
    v}

    Instance field/method references are written [base.Class#member];
    the base must be a local already in scope, which is how the dotted
    prefix is split.  Static field loads are written
    [static Class#field]. *)

open Types
open Stmt
open Lexer

exception Parse_error of int * string

type st = {
  lx : Lexer.t;
  mutable tok : token;
  mutable cls_name : string;
  (* per-method state *)
  mutable locals : (string, local) Hashtbl.t;
  mutable order : local list;
}

let fail st msg = raise (Parse_error (Lexer.line st.lx, msg))

let advance st = st.tok <- Lexer.next st.lx

(* Constant tokens are immediates, so they are tested with [==] or a
   constructor match: [=] on a token would call the C polymorphic
   compare once per test.  [expect] is only ever given a constant
   token. *)
let expect st tok =
  if st.tok == tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s"
         (Lexer.string_of_token tok)
         (Lexer.string_of_token st.tok))

let ident st =
  match st.tok with
  | IDENT s ->
      advance st;
      s
  | t -> fail st (Printf.sprintf "expected an identifier, found %s" (Lexer.string_of_token t))

let kw st k =
  match st.tok with
  | IDENT s when s = k -> advance st
  | t ->
      fail st
        (Printf.sprintf "expected keyword %S, found %s" k
           (Lexer.string_of_token t))

let peek_ident st = match st.tok with IDENT s -> Some s | _ -> None

(* ---------------- types ---------------- *)

let parse_type st =
  let base = ident st in
  let ty = ref (typ_of_string base) in
  let rec arrays () =
    if st.tok == LBRACKET then begin
      advance st;
      expect st RBRACKET;
      ty := Array !ty;
      arrays ()
    end
  in
  arrays ();
  !ty

(* one shared [Object] type for untyped locals and call-site returns;
   call sites carry no parameter types either (dispatch matches by
   name and arity, see DESIGN.md), so every invoke of one arity shares
   one immutable parameter list *)
let object_ref = Ref Types.object_class

let object_params =
  Array.init 16 (fun n -> List.init n (fun _ -> object_ref))

(* ---------------- locals ---------------- *)

let get_local st ?(ty = object_ref) name =
  match Hashtbl.find_opt st.locals name with
  | Some l -> l
  | None ->
      let l = { l_name = name; l_type = ty } in
      Hashtbl.replace st.locals name l;
      st.order <- l :: st.order;
      l

let known_local st name = Hashtbl.mem st.locals name

(* [split_ref st dotted] splits "base.Cls.Name" into (local, class) when
   the first segment is a local in scope; returns None for a plain
   dotted name. *)
let split_ref st dotted =
  match String.index_opt dotted '.' with
  | None -> None
  | Some i -> (
      match Hashtbl.find st.locals (String.sub dotted 0 i) with
      | base ->
          Some (base, String.sub dotted (i + 1) (String.length dotted - i - 1))
      | exception Not_found -> None)

(* ---------------- immediates ---------------- *)

let parse_imm st =
  match st.tok with
  | INT n ->
      advance st;
      Iconst (CInt n)
  | STRING s ->
      advance st;
      Iconst (CStr s)
  | IDENT "null" ->
      advance st;
      Iconst CNull
  | IDENT name ->
      advance st;
      Iloc (get_local st name)
  | t -> fail st (Printf.sprintf "expected an operand, found %s" (Lexer.string_of_token t))

(* ---------------- calls ---------------- *)

let parse_args st =
  expect st LPAREN;
  if st.tok == RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let a = parse_imm st in
      if st.tok == COMMA then begin
        advance st;
        go (a :: acc)
      end
      else begin
        expect st RPAREN;
        List.rev (a :: acc)
      end
    in
    go []
  end

let mk_sig cls name args =
  let arity = List.length args in
  {
    m_class = cls;
    m_name = name;
    m_params =
      (if arity < Array.length object_params then object_params.(arity)
       else List.map (fun _ -> object_ref) args);
    m_ret = object_ref;
  }

(* after the invoke keyword *)
let parse_invoke st kind =
  match kind with
  | Static ->
      let cls = ident st in
      expect st HASH;
      let name = ident st in
      let args = parse_args st in
      { i_kind = Static; i_sig = mk_sig cls name args;
        i_recv = None; i_args = args }
  | Virtual | Special ->
      let dotted = ident st in
      let recv, cls =
        match split_ref st dotted with
        | Some (l, cls) -> (l, cls)
        | None ->
            fail st
              (Printf.sprintf
                 "receiver of instance call must be a local in scope: %S"
                 dotted)
      in
      expect st HASH;
      let name = ident st in
      let args = parse_args st in
      { i_kind = kind; i_sig = mk_sig cls name args;
        i_recv = Some recv; i_args = args }

(* the kind an invoke keyword names; only given the three keywords *)
let invoke_kind = function
  | "virtualinvoke" -> Virtual
  | "specialinvoke" -> Special
  | _ -> Static

(* ---------------- rhs of assignments ---------------- *)

let parse_rhs st : expr =
  match st.tok with
  | LPAREN ->
      (* cast *)
      advance st;
      let ty = parse_type st in
      expect st RPAREN;
      let a = parse_imm st in
      Ecast (ty, a)
  | IDENT "new" ->
      advance st;
      Enew (ident st)
  | IDENT "newarray" ->
      advance st;
      let base = ident st in
      let ty = ref (typ_of_string base) in
      (* consume any number of "[]" element-type suffixes, then the
         final "[n]" length *)
      let rec go () =
        expect st LBRACKET;
        if st.tok == RBRACKET then begin
          advance st;
          ty := Array !ty;
          go ()
        end
        else begin
          let n = parse_imm st in
          expect st RBRACKET;
          n
        end
      in
      let n = go () in
      Enewarray (!ty, n)
  | IDENT "lengthof" ->
      advance st;
      let name = ident st in
      Elength (get_local st name)
  | IDENT "static" ->
      advance st;
      let cls = ident st in
      expect st HASH;
      let fname = ident st in
      Estatic (mk_field cls fname)
  | IDENT "neg" ->
      advance st;
      let a = parse_imm st in
      Eunop ("neg", a)
  | IDENT ("virtualinvoke" | "specialinvoke" | "staticinvoke" as k) ->
      advance st;
      Einvoke (parse_invoke st (invoke_kind k))
  | _ -> (
      (* immediate, field load, array load, binop, instanceof *)
      match st.tok with
      | IDENT dotted when String.contains dotted '.' -> (
          advance st;
          match split_ref st dotted with
          | Some (base, cls) when st.tok == HASH ->
              advance st;
              let fname = ident st in
              Efield (base, mk_field cls fname)
          | _ ->
              fail st
                (Printf.sprintf
                   "dotted reference %S: base is not a local in scope" dotted))
      | _ -> (
          let a = parse_imm st in
          match (a, st.tok) with
          | Iloc base, LBRACKET ->
              advance st;
              let idx = parse_imm st in
              expect st RBRACKET;
              Earray (base, idx)
          | a, IDENT "instanceof" ->
              advance st;
              let ty = parse_type st in
              Einstanceof (a, ty)
          | a, OP op ->
              advance st;
              let b = parse_imm st in
              Ebinop (op, a, b)
          | a, _ -> Eimm a))

(* ---------------- statements ---------------- *)

type pstmt =
  | Ps of Stmt.kind  (** resolved *)
  | Pif of cond * string
  | Pgoto of string

let cmp_of_op st = function
  | "==" -> Ceq
  | "!=" -> Cne
  | "<" -> Clt
  | "<=" -> Cle
  | ">" -> Cgt
  | ">=" -> Cge
  | op -> fail st (Printf.sprintf "not a comparison operator: %S" op)

let parse_tag st =
  if st.tok == AT then begin
    advance st;
    match st.tok with
    | STRING s ->
        advance st;
        Some s
    | t -> fail st (Printf.sprintf "expected a tag string after '@', found %s" (Lexer.string_of_token t))
  end
  else None

(* parse one statement; returns (pstmt, tag) or a label/local decl
   handled via the callbacks *)
let parse_body st =
  let rev : (pstmt * string option * string list) list ref = ref [] in
  let pending_labels = ref [] in
  let emit p tag =
    rev := (p, tag, !pending_labels) :: !rev;
    pending_labels := []
  in
  let finish_stmt p =
    let tag = parse_tag st in
    expect st SEMI;
    emit p tag
  in
  let rec go () =
    match st.tok with
    | RBRACE -> ()
    | IDENT "local" ->
        advance st;
        let name = ident st in
        expect st COLON;
        let ty = parse_type st in
        ignore (get_local st ~ty name);
        expect st SEMI;
        go ()
    | IDENT "if" ->
        advance st;
        let a = parse_imm st in
        let op = match st.tok with
          | OP o -> advance st; cmp_of_op st o
          | t -> fail st (Printf.sprintf "expected a comparison, found %s" (Lexer.string_of_token t))
        in
        let b = parse_imm st in
        kw st "goto";
        let target = ident st in
        finish_stmt (Pif ({ c_op = op; c_left = a; c_right = b }, target));
        go ()
    | IDENT "goto" ->
        advance st;
        let target = ident st in
        finish_stmt (Pgoto target);
        go ()
    | IDENT "return" ->
        advance st;
        if st.tok == SEMI then finish_stmt (Ps (Return None))
        else begin
          let a = parse_imm st in
          finish_stmt (Ps (Return (Some a)))
        end;
        go ()
    | IDENT "throw" ->
        advance st;
        let a = parse_imm st in
        finish_stmt (Ps (Throw a));
        go ()
    | IDENT "nop" ->
        advance st;
        finish_stmt (Ps Nop);
        go ()
    | IDENT ("virtualinvoke" | "specialinvoke" | "staticinvoke" as k) ->
        advance st;
        let inv = parse_invoke st (invoke_kind k) in
        finish_stmt (Ps (InvokeStmt inv));
        go ()
    | IDENT "static" ->
        (* static field store: static C#f = imm; *)
        advance st;
        let cls = ident st in
        expect st HASH;
        let fname = ident st in
        expect st ASSIGN;
        let value = parse_imm st in
        finish_stmt (Ps (Assign (Lstatic (mk_field cls fname), Eimm value)));
        go ()
    | IDENT name -> (
        advance st;
        match st.tok with
        | COLON ->
            (* a label *)
            advance st;
            pending_labels := name :: !pending_labels;
            go ()
        | IDENTITY ->
            advance st;
            expect st AT;
            let what = ident st in
            if what = "this" then begin
              expect st COLON;
              let cls = ident st in
              let l = get_local st ~ty:(Ref cls) name in
              finish_stmt (Ps (Identity (l, Ithis cls)))
            end
            else if String.length what > 9 && String.sub what 0 9 = "parameter"
            then begin
              let n =
                try int_of_string (String.sub what 9 (String.length what - 9))
                with _ -> fail st ("bad parameter reference @" ^ what)
              in
              let l = get_local st name in
              finish_stmt (Ps (Identity (l, Iparam n)))
            end
            else fail st ("unknown identity reference @" ^ what);
            go ()
        | LBRACKET when known_local st name ->
            (* array store: x[i] = imm; *)
            advance st;
            let idx = parse_imm st in
            expect st RBRACKET;
            expect st ASSIGN;
            let value = parse_imm st in
            finish_stmt
              (Ps (Assign (Larray (Hashtbl.find st.locals name, idx), Eimm value)));
            go ()
        | ASSIGN ->
            advance st;
            let rhs = parse_rhs st in
            let l = get_local st name in
            finish_stmt (Ps (Assign (Llocal l, rhs)));
            go ()
        | _ when String.contains name '.' -> (
            (* instance field store: x.C#f = imm; *)
            match split_ref st name with
            | Some (base, cls) ->
                expect st HASH;
                let fname = ident st in
                expect st ASSIGN;
                let value = parse_imm st in
                finish_stmt
                  (Ps (Assign (Lfield (base, mk_field cls fname), Eimm value)));
                go ()
            | None ->
                fail st
                  (Printf.sprintf "dotted name %S: base is not a local in scope"
                     name))
        | t ->
            fail st
              (Printf.sprintf "unexpected %s after %S"
                 (Lexer.string_of_token t) name))
    | t -> fail st (Printf.sprintf "unexpected %s in method body" (Lexer.string_of_token t))
  in
  go ();
  (* seal: resolve labels *)
  let items = List.rev !rev in
  let items =
    (* guarantee a final return (labels at the very end attach to it) *)
    match (List.rev items, !pending_labels) with
    | (Ps (Return _ | Throw _), _, _) :: _, [] -> items
    | _ -> items @ [ (Ps (Return None), None, !pending_labels) ]
  in
  let labels = Hashtbl.create 7 in
  List.iteri
    (fun idx (_, _, ls) ->
      List.iter
        (fun l ->
          if Hashtbl.mem labels l then fail st (Printf.sprintf "duplicate label %S" l);
          Hashtbl.replace labels l idx)
        ls)
    items;
  let target l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None -> fail st (Printf.sprintf "undefined label %S" l)
  in
  let stmts =
    List.map
      (fun (p, tag, _) ->
        let kind =
          match p with
          | Ps k -> k
          | Pif (c, l) -> If (c, target l)
          | Pgoto l -> Goto (target l)
        in
        { s_idx = 0; s_kind = kind; s_tag = tag })
      items
  in
  Body.create ~locals:(List.rev st.order) stmts

(* ---------------- members ---------------- *)

let parse_method st ~static ~abstract ~native =
  kw st "method";
  let ret = parse_type st in
  let name = ident st in
  expect st LPAREN;
  let params =
    if st.tok == RPAREN then []
    else begin
      let rec go acc =
        let t = parse_type st in
        if st.tok == COMMA then begin
          advance st;
          go (t :: acc)
        end
        else List.rev (t :: acc)
      in
      go []
    end
  in
  expect st RPAREN;
  let msig = { m_class = st.cls_name; m_name = name; m_params = params; m_ret = ret } in
  if st.tok == SEMI then begin
    advance st;
    Jclass.mk_method ~static ~abstract ~native msig
  end
  else begin
    expect st LBRACE;
    st.locals <- Hashtbl.create 7;
    st.order <- [];
    let body = parse_body st in
    expect st RBRACE;
    Jclass.mk_method ~static msig ~body
  end

let parse_class st =
  let is_interface =
    match peek_ident st with
    | Some "class" ->
        advance st;
        false
    | Some "interface" ->
        advance st;
        true
    | _ ->
        fail st
          (Printf.sprintf "expected 'class' or 'interface', found %s"
             (Lexer.string_of_token st.tok))
  in
  let name = ident st in
  st.cls_name <- name;
  let super = ref Types.object_class in
  let interfaces = ref [] in
  (match peek_ident st with
  | Some "extends" ->
      advance st;
      super := ident st
  | _ -> ());
  (match peek_ident st with
  | Some "implements" ->
      advance st;
      let rec go () =
        interfaces := ident st :: !interfaces;
        if st.tok == COMMA then begin
          advance st;
          go ()
        end
      in
      go ()
  | _ -> ());
  expect st LBRACE;
  let fields = ref [] and methods = ref [] in
  let rec members () =
    match st.tok with
    | RBRACE -> advance st
    | IDENT "field" ->
        advance st;
        let fname = ident st in
        expect st COLON;
        let ty = parse_type st in
        expect st SEMI;
        fields := { f_class = name; f_name = fname; f_type = ty } :: !fields;
        members ()
    | IDENT _ ->
        let static = ref false and abstract = ref false and native = ref false in
        let rec mods () =
          match peek_ident st with
          | Some "static" -> advance st; static := true; mods ()
          | Some "abstract" -> advance st; abstract := true; mods ()
          | Some "native" -> advance st; native := true; mods ()
          | _ -> ()
        in
        mods ();
        methods :=
          parse_method st ~static:!static ~abstract:!abstract ~native:!native
          :: !methods;
        members ()
    | t -> fail st (Printf.sprintf "unexpected %s in class body" (Lexer.string_of_token t))
  in
  members ();
  Jclass.mk name
    ~super:(if is_interface then Some Types.object_class else Some !super)
    ~interfaces:(List.rev !interfaces) ~is_interface
    ~fields:(List.rev !fields) ~methods:(List.rev !methods)

(** [parse_string src] parses a compilation unit: a sequence of class
    and interface declarations.
    @raise Parse_error with a line number on malformed input. *)
let parse_string src =
  let lx = Lexer.create src in
  let st =
    {
      lx;
      tok = EOF;
      cls_name = "";
      locals = Hashtbl.create 7;
      order = [];
    }
  in
  (try advance st
   with Lexer.Lex_error (line, msg) -> raise (Parse_error (line, msg)));
  let rec go acc =
    match st.tok with
    | EOF -> List.rev acc
    | _ -> (
        match
          try Ok (parse_class st)
          with Lexer.Lex_error (line, msg) -> Error (line, msg)
        with
        | Ok c -> go (c :: acc)
        | Error (line, msg) -> raise (Parse_error (line, msg)))
  in
  go []
