(** Types and symbol signatures for the µJimple IR.

    µJimple is this repository's stand-in for Soot's Jimple: a typed,
    three-address intermediate representation at exactly the level
    FlowDroid's analyses operate on.  Signatures identify fields and
    methods globally, as in Jimple's [<class: type name>] notation. *)

type typ =
  | Void
  | Bool
  | Char
  | Int
  | Long
  | Float
  | Double
  | Ref of string  (** a class or interface type, by fully-qualified name *)
  | Array of typ

let rec equal_typ a b =
  match (a, b) with
  | Void, Void | Bool, Bool | Char, Char | Int, Int | Long, Long
  | Float, Float | Double, Double ->
      true
  | Ref x, Ref y -> String.equal x y
  | Array x, Array y -> equal_typ x y
  | _ -> false

(** [string_of_typ t] renders [t] in Java source syntax,
    e.g. ["int"], ["java.lang.String"], ["byte[]"]. *)
let rec string_of_typ = function
  | Void -> "void"
  | Bool -> "boolean"
  | Char -> "char"
  | Int -> "int"
  | Long -> "long"
  | Float -> "float"
  | Double -> "double"
  | Ref c -> c
  | Array t -> string_of_typ t ^ "[]"

(** [typ_of_string s] inverts {!string_of_typ}; any dotted or plain
    identifier that is not a primitive name is read as a class type. *)
let rec typ_of_string s =
  let n = String.length s in
  if n > 2 && String.sub s (n - 2) 2 = "[]" then
    Array (typ_of_string (String.sub s 0 (n - 2)))
  else
    match s with
    | "void" -> Void
    | "boolean" -> Bool
    | "char" -> Char
    | "int" -> Int
    | "long" -> Long
    | "float" -> Float
    | "double" -> Double
    | c -> Ref c

(* ------------------------------------------------------------------ *)

type field_sig = {
  f_class : string;  (** declaring class *)
  f_name : string;
  f_type : typ;
}
(** A global field identifier, written [class#name] in the textual
    format. *)

let equal_field_sig a b =
  a == b || (String.equal a.f_class b.f_class && String.equal a.f_name b.f_name)

(* hash exactly the fields [equal_field_sig] compares (the value type
   is deliberately excluded, as in Jimple field resolution) *)
let hash_field_sig f =
  Fd_util.Intern.combine (Hashtbl.hash f.f_class) (Hashtbl.hash f.f_name)

let mk_field ?(ty = Ref "java.lang.Object") f_class f_name =
  { f_class; f_name; f_type = ty }

let string_of_field_sig f = Printf.sprintf "%s#%s" f.f_class f.f_name

(* ------------------------------------------------------------------ *)

type method_sig = {
  m_class : string;  (** declaring (or statically-resolved) class *)
  m_name : string;
  m_params : typ list;
  m_ret : typ;
}
(** A global method identifier.  Virtual dispatch resolves the same
    sub-signature (name, params, return) against the runtime class. *)

let mk_method ?(params = []) ?(ret = Void) m_class m_name =
  { m_class; m_name; m_params = params; m_ret = ret }

let string_of_method_sig m =
  Printf.sprintf "<%s: %s %s(%s)>" m.m_class (string_of_typ m.m_ret) m.m_name
    (String.concat "," (List.map string_of_typ m.m_params))

(** Well-known class names used throughout the Android model. *)
let object_class = "java.lang.Object"
