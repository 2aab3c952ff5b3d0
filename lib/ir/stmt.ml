(** µJimple statements: three-address code in Jimple's statement
    taxonomy (assignments, identity statements, invokes, branches,
    returns).

    Branch targets are statement indices within the enclosing
    {!Body.t}; the builder DSL and the textual parser both work with
    symbolic labels and resolve them to indices when the body is
    sealed. *)

open Types

type local = { l_name : string; l_type : typ }
(** A method-local variable or parameter.  Locals are identified by
    name within their method; the builder interns them so that equal
    names are physically shared. *)

let equal_local a b = a == b || String.equal a.l_name b.l_name
let hash_local l = Hashtbl.hash l.l_name
let mk_local ?(ty = Ref Types.object_class) l_name = { l_name; l_type = ty }

type const =
  | CInt of int
  | CStr of string
  | CNull
  | CClassRef of string  (** a class literal, [C.class] *)

let string_of_const = function
  | CInt i -> string_of_int i
  | CStr s -> Printf.sprintf "%S" s
  | CNull -> "null"
  | CClassRef c -> c ^ ".class"

(** An immediate operand: a local or a constant (Jimple restricts all
    non-trivial expressions to operate on immediates only). *)
type imm = Iloc of local | Iconst of const

let string_of_imm = function
  | Iloc l -> l.l_name
  | Iconst c -> string_of_const c

(** [imm_local i] extracts the local if [i] is one. *)
let imm_local = function Iloc l -> Some l | Iconst _ -> None

type invoke_kind =
  | Virtual  (** virtual or interface dispatch on the receiver *)
  | Special  (** constructors, [super] calls, private methods *)
  | Static

type invoke = {
  i_kind : invoke_kind;
  i_sig : method_sig;  (** the statically named target *)
  i_recv : local option;  (** [None] exactly for static calls *)
  i_args : imm list;
}

let string_of_invoke inv =
  let kind =
    match inv.i_kind with
    | Virtual -> "virtualinvoke"
    | Special -> "specialinvoke"
    | Static -> "staticinvoke"
  in
  let recv = match inv.i_recv with Some r -> r.l_name ^ "." | None -> "" in
  Printf.sprintf "%s %s%s#%s(%s)" kind recv inv.i_sig.m_class
    inv.i_sig.m_name
    (String.concat ", " (List.map string_of_imm inv.i_args))

(** Right-hand sides of assignments. *)
type expr =
  | Eimm of imm
  | Efield of local * field_sig  (** instance field load [x.f] *)
  | Estatic of field_sig  (** static field load *)
  | Earray of local * imm  (** array load [x\[i\]] *)
  | Ebinop of string * imm * imm  (** e.g. ["+"], ["cmp"]; operator is opaque *)
  | Eunop of string * imm
  | Ecast of typ * imm
  | Einstanceof of imm * typ
  | Enew of string  (** allocation of a class instance *)
  | Enewarray of typ * imm
  | Elength of local
  | Einvoke of invoke  (** call whose result is assigned *)

let string_of_expr = function
  | Eimm i -> string_of_imm i
  | Efield (x, f) -> Printf.sprintf "%s.%s" x.l_name (string_of_field_sig f)
  | Estatic f -> "static " ^ string_of_field_sig f
  | Earray (x, i) -> Printf.sprintf "%s[%s]" x.l_name (string_of_imm i)
  | Ebinop (op, a, b) ->
      Printf.sprintf "%s %s %s" (string_of_imm a) op (string_of_imm b)
  | Eunop (op, a) -> Printf.sprintf "%s %s" op (string_of_imm a)
  | Ecast (t, a) -> Printf.sprintf "(%s) %s" (string_of_typ t) (string_of_imm a)
  | Einstanceof (a, t) ->
      Printf.sprintf "%s instanceof %s" (string_of_imm a) (string_of_typ t)
  | Enew c -> "new " ^ c
  | Enewarray (t, n) ->
      Printf.sprintf "newarray %s[%s]" (string_of_typ t) (string_of_imm n)
  | Elength x -> Printf.sprintf "lengthof %s" x.l_name
  | Einvoke inv -> string_of_invoke inv

(** Assignment targets. *)
type lvalue =
  | Llocal of local
  | Lfield of local * field_sig  (** instance field store [x.f = ...] *)
  | Lstatic of field_sig
  | Larray of local * imm

let string_of_lvalue = function
  | Llocal l -> l.l_name
  | Lfield (x, f) -> Printf.sprintf "%s.%s" x.l_name (string_of_field_sig f)
  | Lstatic f -> "static " ^ string_of_field_sig f
  | Larray (x, i) -> Printf.sprintf "%s[%s]" x.l_name (string_of_imm i)

(** Comparison operators of conditional branches.  FlowDroid never
    evaluates branch conditions (both sides of every branch are
    analysed), so the operator is only kept for printing. *)
type cmpop = Ceq | Cne | Clt | Cle | Cgt | Cge

let string_of_cmpop = function
  | Ceq -> "==" | Cne -> "!=" | Clt -> "<" | Cle -> "<=" | Cgt -> ">" | Cge -> ">="

type cond = { c_op : cmpop; c_left : imm; c_right : imm }

let string_of_cond c =
  Printf.sprintf "%s %s %s" (string_of_imm c.c_left)
    (string_of_cmpop c.c_op) (string_of_imm c.c_right)

(** Identity right-hand sides: how parameters enter a Jimple body. *)
type identity_ref =
  | Ithis of string  (** [@this: C] *)
  | Iparam of int  (** [@parameter n] *)

type kind =
  | Assign of lvalue * expr
  | InvokeStmt of invoke  (** a call whose result is discarded *)
  | Identity of local * identity_ref
  | If of cond * int  (** conditional branch to a statement index *)
  | Goto of int
  | Return of imm option
  | Throw of imm
  | Nop

type t = {
  s_idx : int;  (** position within the enclosing body *)
  s_kind : kind;
  s_tag : string option;
      (** benchmark ground-truth marker; carried through to analysis
          results so the evaluation harness can match found leaks
          against expected ones *)
}

let string_of_kind = function
  | Assign (lv, e) ->
      Printf.sprintf "%s = %s" (string_of_lvalue lv) (string_of_expr e)
  | InvokeStmt inv -> string_of_invoke inv
  | Identity (l, Ithis c) -> Printf.sprintf "%s := @this: %s" l.l_name c
  | Identity (l, Iparam n) -> Printf.sprintf "%s := @parameter%d" l.l_name n
  | If (c, tgt) -> Printf.sprintf "if %s goto %d" (string_of_cond c) tgt
  | Goto tgt -> Printf.sprintf "goto %d" tgt
  | Return None -> "return"
  | Return (Some i) -> "return " ^ string_of_imm i
  | Throw i -> "throw " ^ string_of_imm i
  | Nop -> "nop"

let to_string s =
  let tag = match s.s_tag with Some t -> Printf.sprintf " @%S" t | None -> "" in
  Printf.sprintf "%s%s" (string_of_kind s.s_kind) tag

(** [invoke_of s] extracts the call of [s] whether it appears as an
    invoke statement or on the right-hand side of an assignment. *)
let invoke_of s =
  match s.s_kind with
  | InvokeStmt inv -> Some inv
  | Assign (_, Einvoke inv) -> Some inv
  | _ -> None

(** [is_call s] holds when [s] contains a method call. *)
let is_call s = Option.is_some (invoke_of s)

(** [def_local s] is the local defined (fully overwritten) by [s], if
    any.  Field/array stores do not fully define their base local. *)
let def_local s =
  match s.s_kind with
  | Assign (Llocal l, _) -> Some l
  | Identity (l, _) -> Some l
  | _ -> None
