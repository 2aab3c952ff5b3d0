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
let line t = t.line
let fail t msg = raise (Lex_error (t.line, msg))

(* Every loop below reads [t.src] with [String.unsafe_get] behind an
   explicit [pos < len] test.  Newlines are consumed only by [skip_ws]
   and [read_string], so only those two count lines. *)

(* the byte at [i], or NUL past the end *)
let char_at src i =
  if i < String.length src then String.unsafe_get src i else '\000'

let[@inline] is_ident_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> true
  | _ -> false

let[@inline] is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true
  | _ -> false

(* blanks, [//] line comments and [/* */] block comments *)
let skip_ws t =
  let src = t.src in
  let len = String.length src in
  let pos = ref t.pos and line = ref t.line and blank = ref true in
  while !blank && !pos < len do
    match String.unsafe_get src !pos with
    | ' ' | '\t' | '\r' -> incr pos
    | '\n' ->
        incr pos;
        incr line
    | '/' when !pos + 1 < len && String.unsafe_get src (!pos + 1) = '/' ->
        pos := !pos + 2;
        while !pos < len && String.unsafe_get src !pos <> '\n' do
          incr pos
        done
    | '/' when !pos + 1 < len && String.unsafe_get src (!pos + 1) = '*' ->
        pos := !pos + 2;
        while
          !pos + 1 >= len
          || String.unsafe_get src !pos <> '*'
          || String.unsafe_get src (!pos + 1) <> '/'
        do
          if !pos >= len then begin
            t.line <- !line;
            fail t "unterminated comment"
          end;
          if String.unsafe_get src !pos = '\n' then incr line;
          incr pos
        done;
        pos := !pos + 2
    | _ -> blank := false
  done;
  t.pos <- !pos;
  t.line <- !line

(* The loop is a local closure over [t] and [buf], allocated once per
   literal: the front end's allocation is kept word for word, because
   the benchmark's heap peak moves with any shift in when the minor
   heap fills (DESIGN.md §8, "Front end"). *)
let read_string t =
  (* opening quote consumed by caller *)
  let buf = Buffer.create 16 in
  let rec go () =
    let src = t.src and pos = t.pos in
    let len = String.length src in
    if pos >= len then fail t "unterminated string literal";
    let c = String.unsafe_get src pos in
    t.pos <- pos + 1;
    match c with
    | '"' -> ()
    | '\\' ->
        if pos + 1 >= len then fail t "unterminated string literal";
        let e = String.unsafe_get src (pos + 1) in
        t.pos <- pos + 2;
        (match e with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | '\\' -> Buffer.add_char buf '\\'
        | '"' -> Buffer.add_char buf '"'
        | '0' .. '9' ->
            (* decimal escape \ddd as produced by OCaml's %S: up to
               three digits *)
            let stop = min len (pos + 4) in
            let code = ref (Char.code e - Char.code '0') in
            while
              t.pos < stop
              && match String.unsafe_get src t.pos with
                 | '0' .. '9' -> true
                 | _ -> false
            do
              code :=
                (!code * 10) + Char.code (String.unsafe_get src t.pos)
                - Char.code '0';
              t.pos <- t.pos + 1
            done;
            if !code > 255 then
              fail t
                (Printf.sprintf "escape \\%s out of range"
                   (String.sub src (pos + 1) (t.pos - pos - 1)));
            Buffer.add_char buf (Char.chr !code)
        | e -> fail t (Printf.sprintf "unknown escape \\%c" e));
        go ()
    | '\n' ->
        t.line <- t.line + 1;
        Buffer.add_char buf c;
        go ()
    | c ->
        Buffer.add_char buf c;
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

(* the one-byte token at [pos], or the two-byte one when '=' follows *)
let with_eq t pos one two =
  if char_at t.src (pos + 1) = '=' then begin
    t.pos <- pos + 2;
    two
  end
  else begin
    t.pos <- pos + 1;
    one
  end

(* after a '<' or '>' at [pos]: the operator followed by '=', doubled,
   or alone *)
let angle_op t pos le shift one =
  let c = char_at t.src (pos + 1) in
  if c = '=' then begin
    t.pos <- pos + 2;
    le
  end
  else if c = String.unsafe_get t.src pos then begin
    t.pos <- pos + 2;
    shift
  end
  else begin
    t.pos <- pos + 1;
    one
  end

let next t =
  skip_ws t;
  let src = t.src and pos = t.pos in
  if pos >= String.length src then EOF
  else
    match String.unsafe_get src pos with
    | '{' -> t.pos <- pos + 1; LBRACE
    | '}' -> t.pos <- pos + 1; RBRACE
    | '(' -> t.pos <- pos + 1; LPAREN
    | ')' -> t.pos <- pos + 1; RPAREN
    | '[' -> t.pos <- pos + 1; LBRACKET
    | ']' -> t.pos <- pos + 1; RBRACKET
    | ';' -> t.pos <- pos + 1; SEMI
    | ',' -> t.pos <- pos + 1; COMMA
    | '#' -> t.pos <- pos + 1; HASH
    | '@' -> t.pos <- pos + 1; AT
    | '.' -> t.pos <- pos + 1; DOT
    | '"' ->
        t.pos <- pos + 1;
        STRING (read_string t)
    | ':' -> with_eq t pos COLON IDENTITY
    | '=' -> with_eq t pos ASSIGN (OP "==")
    | '!' ->
        if char_at src (pos + 1) = '=' then begin
          t.pos <- pos + 2;
          OP "!="
        end
        else fail t "unexpected '!'"
    | '<' -> (
        (* either the operator <, <=, << or the <init>/<clinit> names;
           try the bracketed-name reading first and fall back to the
           operator reading if no closing '>' follows (the option keeps
           the allocation as it was, like [read_string]'s closure) *)
        let bracketed =
          if is_ident_start (char_at src (pos + 1)) then begin
            t.pos <- pos + 1;
            let name = read_ident t in
            if char_at src t.pos = '>' then begin
              t.pos <- t.pos + 1;
              Some (IDENT ("<" ^ name ^ ">"))
            end
            else None
          end
          else None
        in
        match bracketed with
        | Some tok -> tok
        | None -> angle_op t pos (OP "<=") (OP "<<") (OP "<"))
    | '>' -> angle_op t pos (OP ">=") (OP ">>") (OP ">")
    | ('+' | '*' | '/' | '%' | '&' | '|' | '^' | '~') as c ->
        t.pos <- pos + 1;
        OP (String.make 1 c)
    | '-' -> (
        t.pos <- pos + 1;
        match char_at src (pos + 1) with
        | '0' .. '9' -> INT (-read_digits t)
        | _ -> OP "-")
    | '0' .. '9' -> INT (read_digits t)
    | 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> IDENT (read_ident t)
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
