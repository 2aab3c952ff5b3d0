(** Lexer for the textual µJimple format.

    Hand-written; tokens carry their line number for error reporting.
    Identifiers include dots (fully-qualified class names are single
    tokens) and the pseudo-name [<init>] is lexed as one identifier. *)

type token =
  | IDENT of string
  | INT of int
  | STRING of string
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | SEMI
  | COLON
  | COMMA
  | HASH
  | AT
  | DOT
  | ASSIGN  (** [=] *)
  | IDENTITY  (** [:=] *)
  | OP of string  (** comparison or arithmetic operator *)
  | EOF

exception Lex_error of int * string

type t = { src : string; mutable pos : int; mutable line : int }

let create src = { src; pos = 0; line = 1 }
let fail t msg = raise (Lex_error (t.line, msg))
let eof t = t.pos >= String.length t.src
let peek t = if eof t then '\000' else t.src.[t.pos]

let peek2 t =
  if t.pos + 1 >= String.length t.src then '\000' else t.src.[t.pos + 1]

let advance t =
  if peek t = '\n' then t.line <- t.line + 1;
  t.pos <- t.pos + 1

let is_ident_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> true
  | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
  | _ -> false

let rec skip_ws t =
  if eof t then ()
  else
    match peek t with
    | ' ' | '\t' | '\r' | '\n' ->
        advance t;
        skip_ws t
    | '/' when peek2 t = '/' ->
        while (not (eof t)) && peek t <> '\n' do
          advance t
        done;
        skip_ws t
    | '/' when peek2 t = '*' ->
        advance t;
        advance t;
        let rec go () =
          if eof t then fail t "unterminated comment"
          else if peek t = '*' && peek2 t = '/' then begin
            advance t;
            advance t
          end
          else begin
            advance t;
            go ()
          end
        in
        go ();
        skip_ws t
    | _ -> ()

let read_string t =
  (* opening quote consumed by caller *)
  let buf = Buffer.create 16 in
  let rec go () =
    if eof t then fail t "unterminated string literal"
    else
      match peek t with
      | '"' -> advance t
      | '\\' ->
          advance t;
          (match peek t with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | '\\' -> Buffer.add_char buf '\\'
          | '"' -> Buffer.add_char buf '"'
          | '0' .. '9' ->
              (* decimal escape \ddd as produced by OCaml's %S *)
              let d = Buffer.create 3 in
              let rec digits n =
                if n > 0 && (match peek t with '0' .. '9' -> true | _ -> false)
                then begin
                  Buffer.add_char d (peek t);
                  advance t;
                  digits (n - 1)
                end
              in
              Buffer.add_char d (peek t);
              advance t;
              digits 2;
              t.pos <- t.pos - 1;
              (* compensate the unconditional advance below *)
              let code = int_of_string (Buffer.contents d) in
              if code > 255 then
                fail t
                  (Printf.sprintf "escape \\%s out of range" (Buffer.contents d));
              Buffer.add_char buf (Char.chr code)
          | c -> fail t (Printf.sprintf "unknown escape \\%c" c));
          advance t;
          go ()
      | c ->
          Buffer.add_char buf c;
          advance t;
          go ()
  in
  go ();
  Buffer.contents buf

(** Dotted identifier: [seg(.seg)*] where a segment is an identifier.
    A dot is included only when followed by an identifier start, so
    [x.foo#f] lexes the base as part of the dotted name — the parser
    splits on context.  We instead stop the dotted read before a
    segment if the char after the dot is not an ident start.

    The name is scanned in place and copied out once: identifiers are
    most of the tokens, so no intermediate buffer and no local closure
    (each would be allocated per call).  Identifiers hold no newline,
    so the line count is untouched. *)
let read_ident t =
  let src = t.src in
  let len = String.length src in
  let start = t.pos in
  let pos = ref start in
  while !pos < len && is_ident_char (String.unsafe_get src !pos) do
    incr pos
  done;
  while
    !pos + 1 < len
    && String.unsafe_get src !pos = '.'
    && is_ident_start (String.unsafe_get src (!pos + 1))
  do
    pos := !pos + 2;
    while !pos < len && is_ident_char (String.unsafe_get src !pos) do
      incr pos
    done
  done;
  t.pos <- !pos;
  String.sub src start (!pos - start)

(* a run of decimal digits, accumulated without copying it out *)
let read_digits t =
  let src = t.src in
  let len = String.length src in
  let pos = ref t.pos and n = ref 0 in
  while
    !pos < len
    && match String.unsafe_get src !pos with '0' .. '9' -> true | _ -> false
  do
    let d = Char.code (String.unsafe_get src !pos) - Char.code '0' in
    if !n > (max_int - d) / 10 then fail t "integer literal out of range";
    n := (!n * 10) + d;
    incr pos
  done;
  t.pos <- !pos;
  !n

let next t =
  skip_ws t;
  if eof t then EOF
  else
    let c = peek t in
    match c with
    | '{' -> advance t; LBRACE
    | '}' -> advance t; RBRACE
    | '(' -> advance t; LPAREN
    | ')' -> advance t; RPAREN
    | '[' -> advance t; LBRACKET
    | ']' -> advance t; RBRACKET
    | ';' -> advance t; SEMI
    | ',' -> advance t; COMMA
    | '#' -> advance t; HASH
    | '@' -> advance t; AT
    | '.' -> advance t; DOT
    | '"' -> advance t; STRING (read_string t)
    | ':' ->
        advance t;
        if peek t = '=' then begin advance t; IDENTITY end else COLON
    | '=' ->
        advance t;
        if peek t = '=' then begin advance t; OP "==" end else ASSIGN
    | '!' ->
        advance t;
        if peek t = '=' then begin advance t; OP "!=" end
        else fail t "unexpected '!'"
    | '<' ->
        (* either the operator <, <=, << or the <init>/<clinit> names;
           try the bracketed-name reading first and backtrack to the
           operator reading if no closing '>' follows *)
        let saved_pos = t.pos and saved_line = t.line in
        let bracketed =
          if is_ident_start (peek2 t) then begin
            advance t;
            let name = read_ident t in
            if peek t = '>' then begin
              advance t;
              Some (IDENT ("<" ^ name ^ ">"))
            end
            else begin
              t.pos <- saved_pos;
              t.line <- saved_line;
              None
            end
          end
          else None
        in
        (match bracketed with
        | Some tok -> tok
        | None ->
            advance t;
            if peek t = '=' then begin advance t; OP "<=" end
            else if peek t = '<' then begin advance t; OP "<<" end
            else OP "<")
    | '>' ->
        advance t;
        if peek t = '=' then begin advance t; OP ">=" end
        else if peek t = '>' then begin advance t; OP ">>" end
        else OP ">"
    | '+' | '*' | '/' | '%' | '&' | '|' | '^' | '~' ->
        advance t;
        OP (String.make 1 c)
    | '-' ->
        advance t;
        (match peek t with
        | '0' .. '9' -> INT (-read_digits t)
        | _ -> OP "-")
    | '0' .. '9' -> INT (read_digits t)
    | c when is_ident_start c -> IDENT (read_ident t)
    | c -> fail t (Printf.sprintf "unexpected character %C" c)

let string_of_token = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | INT i -> Printf.sprintf "integer %d" i
  | STRING s -> Printf.sprintf "string %S" s
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | SEMI -> "';'"
  | COLON -> "':'"
  | COMMA -> "','"
  | HASH -> "'#'"
  | AT -> "'@'"
  | DOT -> "'.'"
  | ASSIGN -> "'='"
  | IDENTITY -> "':='"
  | OP s -> Printf.sprintf "operator %S" s
  | EOF -> "end of input"
