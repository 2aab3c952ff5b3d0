open Fd_ir

type value =
  | Vstr of string
  | Vclass of string
  | Vmethod of string * string

module Env = Map.Make (String)
(* local name -> known value; absence = unknown (top for one local);
   the whole-state [None] = unreachable *)

type env = value Env.t

type t = { cp_in : env option array }

let equal_value a b =
  match (a, b) with
  | Vstr x, Vstr y | Vclass x, Vclass y -> String.equal x y
  | Vmethod (c1, m1), Vmethod (c2, m2) ->
      String.equal c1 c2 && String.equal m1 m2
  | _ -> false

(* meet by equality: keep a binding only when both sides agree *)
let join (a : env) (b : env) : env =
  Env.merge
    (fun _ va vb ->
      match (va, vb) with
      | Some x, Some y when equal_value x y -> Some x
      | _ -> None)
    a b

let equal_env (a : env) (b : env) = Env.equal equal_value a b

let const_value = function
  | Stmt.CStr s -> Some (Vstr s)
  | Stmt.CClassRef c -> Some (Vclass c)
  | Stmt.CInt _ | Stmt.CNull -> None

let imm_value_env env = function
  | Stmt.Iconst c -> const_value c
  | Stmt.Iloc l -> Env.find_opt l.Stmt.l_name env

(* the declared reference type of a local, when informative *)
let declared_class (l : Stmt.local) =
  match l.Stmt.l_type with Types.Ref c -> Some c | _ -> None

(* abstract the reflection builtins the interpreter models concretely:
   Class.forName(name) / x.getClass() / cls.getMethod(name).  As in
   the interpreter, [getMethod]'s receiver may be either a genuine
   Class handle or an instance statically typed java.lang.Class — in
   the latter case the receiver's declared type names the target. *)
let invoke_value env (inv : Stmt.invoke) : value option =
  let cls = inv.Stmt.i_sig.Types.m_class in
  let name = inv.Stmt.i_sig.Types.m_name in
  match (cls, name, inv.Stmt.i_recv, inv.Stmt.i_args) with
  | "java.lang.Class", "forName", _, [ a ] -> (
      match imm_value_env env a with
      | Some (Vstr s) -> Some (Vclass s)
      | _ -> None)
  | _, "getClass", Some r, [] -> (
      match Env.find_opt r.Stmt.l_name env with
      | Some (Vclass _ as v) -> Some v
      | _ -> Option.map (fun c -> Vclass c) (declared_class r))
  | "java.lang.Class", "getMethod", Some r, a :: _ -> (
      let target =
        match Env.find_opt r.Stmt.l_name env with
        | Some (Vclass c) -> Some c
        | _ -> (
            match declared_class r with
            | Some c when c <> "java.lang.Class" -> Some c
            | _ -> None)
      in
      match (target, imm_value_env env a) with
      | Some c, Some (Vstr m) -> Some (Vmethod (c, m))
      | _ -> None)
  | _ -> None

let transfer (s : Stmt.t) (env : env) : env =
  let def x v =
    match v with
    | Some v -> Env.add x.Stmt.l_name v env
    | None -> Env.remove x.Stmt.l_name env
  in
  match s.Stmt.s_kind with
  | Stmt.Assign (Stmt.Llocal x, Stmt.Eimm i) -> def x (imm_value_env env i)
  | Stmt.Assign (Stmt.Llocal x, Stmt.Ecast (_, i)) -> def x (imm_value_env env i)
  | Stmt.Assign (Stmt.Llocal x, Stmt.Einvoke inv) -> def x (invoke_value env inv)
  | Stmt.Assign (Stmt.Llocal x, _) -> def x None
  | Stmt.Identity (x, _) -> def x None
  | _ -> env

let analyze (body : Body.t) : t =
  {
    cp_in =
      Body.forward body ~entry:Env.empty ~transfer ~join ~equal:equal_env;
  }

let value_at t ~at (l : Stmt.local) =
  if at < 0 || at >= Array.length t.cp_in then None
  else
    match t.cp_in.(at) with
    | None -> None
    | Some env -> Env.find_opt l.Stmt.l_name env

let imm_value t ~at = function
  | Stmt.Iconst c -> const_value c
  | Stmt.Iloc l -> value_at t ~at l
