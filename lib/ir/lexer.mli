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
(** 1-based line number and description *)

type t
(** a cursor over one source string *)

val create : string -> t
(** [create src] starts lexing [src] at line 1. *)

val next : t -> token
(** [next t] skips blanks and comments and returns the next token,
    [EOF] at the end of the input (and on every later call).
    @raise Lex_error on a malformed token or an unterminated comment or
    string literal *)

val line : t -> int
(** the line the lexer has reached: where the last token returned ends,
    or where the error it raised was found *)

val string_of_token : token -> string
(** the token as error messages name it, e.g. [identifier "x"] *)
