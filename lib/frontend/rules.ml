(** Library "shortcut" rules (taint wrappers) and native-call models.

    Section 5 of the paper: analysing the full JRE/Android runtime is
    expensive and imprecise, so FlowDroid ships a textual file format
    of shortcut rules for common library classes (collections, string
    buffers, ...) applied along the call-to-return edge, plus explicit
    taint-propagation rules for common native methods such as
    [System.arraycopy].

    A rule maps a (class, method) pair to a list of taint-propagation
    effects.  When the engine sees a call to a modelled method it
    applies the effects instead of (not in addition to) analysing a
    callee — rules are exclusive, mirroring FlowDroid's taint
    wrappers.  Rules attach to the *declared* receiver class or any of
    its supertypes, so one rule on [java.util.Map] covers [HashMap]. *)

type target = To_ret | To_recv | To_arg of int
type origin = From_recv | From_any_arg | From_arg of int

type effect = { eff_to : target; eff_from : origin }
(** "[eff_to] becomes tainted if [eff_from] is tainted". *)

type t = { rules : (string * string, effect list) Hashtbl.t }

let create bindings =
  let t = { rules = Hashtbl.create 64 } in
  List.iter
    (fun (cls, mname, effects) ->
      let key = (cls, mname) in
      let prev = Option.value (Hashtbl.find_opt t.rules key) ~default:[] in
      Hashtbl.replace t.rules key (prev @ effects))
    bindings;
  t

(** [lookup t ~cls ~mname] finds the effects for an exact (class,
    method) pair; the engine is responsible for also trying the
    receiver's supertypes. *)
let lookup t ~cls ~mname = Hashtbl.find_opt t.rules (cls, mname)

(** [mem t ~cls ~mname] is [lookup <> None]. *)
let mem t ~cls ~mname = Hashtbl.mem t.rules (cls, mname)

(** [digest t] is a stable MD5 of a canonical rendering of the rule
    set: one line per (class, method) in sorted order, independent of
    insertion order and hash-table layout.  The persistent summary
    store folds it into its analysis-config key — two rule sets with
    the same digest induce the same wrapper transfer functions. *)
let digest t =
  let target_str = function
    | To_ret -> "ret"
    | To_recv -> "recv"
    | To_arg i -> "arg" ^ string_of_int i
  in
  let origin_str = function
    | From_recv -> "recv"
    | From_any_arg -> "args"
    | From_arg i -> "arg" ^ string_of_int i
  in
  let lines =
    Hashtbl.fold
      (fun (cls, mname) effects acc ->
        let effs =
          List.map
            (fun e -> target_str e.eff_to ^ "<-" ^ origin_str e.eff_from)
            effects
        in
        (cls ^ " " ^ mname ^ " : " ^ String.concat ", " effs) :: acc)
      t.rules []
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

(* ------------------------------------------------------------------ *)
(* Textual format                                                      *)
(* ------------------------------------------------------------------ *)

exception Bad_rule of int * string

(* Line format ('%' comments):
     <class> <method> : eff (, eff)*
   where eff is  tgt<-src,  tgt in {ret, recv, argN},
                            src in {recv, args, argN}.     *)
let parse_effect lineno s =
  let fail msg = raise (Bad_rule (lineno, msg)) in
  match String.index_opt s '<' with
  | Some i when i + 1 < String.length s && s.[i + 1] = '-' ->
      let tgt = String.trim (String.sub s 0 i) in
      let src = String.trim (String.sub s (i + 2) (String.length s - i - 2)) in
      let parse_pos role = function
        | "ret" when role = `Tgt -> To_ret
        | "recv" when role = `Tgt -> To_recv
        | p when role = `Tgt && String.length p > 3 && String.sub p 0 3 = "arg"
          -> (
            try To_arg (int_of_string (String.sub p 3 (String.length p - 3)))
            with _ -> fail ("bad arg position " ^ p))
        | p -> fail ("bad target " ^ p)
      in
      let eff_to = parse_pos `Tgt tgt in
      let eff_from =
        match src with
        | "recv" -> From_recv
        | "args" -> From_any_arg
        | p when String.length p > 3 && String.sub p 0 3 = "arg" -> (
            try From_arg (int_of_string (String.sub p 3 (String.length p - 3)))
            with _ -> fail ("bad arg position " ^ p))
        | p -> fail ("bad origin " ^ p)
      in
      { eff_to; eff_from }
  | _ -> fail (Printf.sprintf "malformed effect %S (expected tgt<-src)" s)

let parse_line lineno line =
  let line =
    match String.index_opt line '%' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then None
  else begin
    let fail msg = raise (Bad_rule (lineno, msg)) in
    match String.index_opt line ':' with
    | None -> fail "expected ':' between signature and effects"
    | Some i ->
        let head = String.trim (String.sub line 0 i) in
        let tail = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        let cls, mname =
          match String.rindex_opt head ' ' with
          | Some j ->
              ( String.trim (String.sub head 0 j),
                String.sub head (j + 1) (String.length head - j - 1) )
          | None -> fail "expected '<class> <method>'"
        in
        let effects =
          if tail = "" then []
          else
            String.split_on_char ',' tail |> List.map (parse_effect lineno)
        in
        Some (cls, mname, effects)
  end

(** [parse_string src] parses a rules file into bindings. *)
let parse_string src =
  String.split_on_char '\n' src
  |> List.mapi (fun i l -> parse_line (i + 1) l)
  |> List.filter_map Fun.id

(** [of_string src] parses and indexes a rules file. *)
let of_string src = create (parse_string src)

(* ------------------------------------------------------------------ *)
(* Default rules                                                       *)
(* ------------------------------------------------------------------ *)

(** The default library model, in the textual format.  Mirrors
    FlowDroid's predefined rules for collection classes, string
    buffers "and similar commonly used data structures, e.g.,
    specifying that adding a tainted element to a set taints the
    entire set". *)
let default_wrapper_config =
  {|% ---- strings ----------------------------------------------------------
java.lang.String <init> : recv<-args
java.lang.String concat : ret<-recv, ret<-args
java.lang.String substring : ret<-recv
java.lang.String toLowerCase : ret<-recv
java.lang.String toUpperCase : ret<-recv
java.lang.String trim : ret<-recv
java.lang.String toString : ret<-recv
java.lang.String getBytes : ret<-recv
java.lang.String toCharArray : ret<-recv
java.lang.String charAt : ret<-recv
java.lang.String split : ret<-recv
java.lang.String intern : ret<-recv
java.lang.String valueOf : ret<-args
java.lang.String format : ret<-args
java.lang.String equals :
java.lang.String length :
java.lang.String isEmpty :
java.lang.String startsWith :
java.lang.String indexOf :
java.lang.Object toString : ret<-recv
java.lang.Object hashCode :
java.lang.Object equals :
% ---- string builders ---------------------------------------------------
java.lang.StringBuilder <init> : recv<-args
java.lang.StringBuilder append : recv<-args, ret<-recv, ret<-args
java.lang.StringBuilder insert : recv<-args, ret<-recv, ret<-args
java.lang.StringBuilder toString : ret<-recv
java.lang.StringBuffer <init> : recv<-args
java.lang.StringBuffer append : recv<-args, ret<-recv, ret<-args
java.lang.StringBuffer insert : recv<-args, ret<-recv, ret<-args
java.lang.StringBuffer toString : ret<-recv
% ---- collections: a tainted element taints the whole container ---------
java.util.List add : recv<-args
java.util.List set : recv<-args
java.util.List get : ret<-recv
java.util.List remove : ret<-recv
java.util.List iterator : ret<-recv
java.util.List toArray : ret<-recv
java.util.Map put : recv<-args
java.util.Map get : ret<-recv
java.util.Map remove : ret<-recv
java.util.Map keySet : ret<-recv
java.util.Map values : ret<-recv
java.util.Map entrySet : ret<-recv
java.util.Set add : recv<-args
java.util.Set iterator : ret<-recv
java.util.Set toArray : ret<-recv
java.util.Iterator next : ret<-recv
java.util.Map$Entry getKey : ret<-recv
java.util.Map$Entry getValue : ret<-recv
% ---- Android UI ---------------------------------------------------------
android.widget.TextView setText : recv<-args
android.widget.TextView getText : ret<-recv
android.widget.TextView toString : ret<-recv
android.widget.EditText setText : recv<-args
android.widget.EditText getText : ret<-recv
android.widget.EditText toString : ret<-recv
% ---- servlet sessions (RQ4 / SecuriBench) -------------------------------
javax.servlet.http.HttpSession setAttribute : recv<-args
javax.servlet.http.HttpSession getAttribute : ret<-recv
javax.servlet.http.HttpServletRequest getSession : ret<-recv
% ---- Android ICC carriers ----------------------------------------------
android.content.Intent <init> : recv<-args
android.content.Intent putExtra : recv<-args, ret<-recv
android.content.Intent putExtras : recv<-args, ret<-recv
android.os.Bundle putString : recv<-args
android.os.Bundle getString : ret<-recv
|}

(** Explicit models for common native methods (Section 5, "Native
    Calls").  [System.arraycopy]: the third argument (the destination
    array, index 2) becomes tainted if the first (source array) is. *)
let default_native_config =
  {|java.lang.System arraycopy : arg2<-arg0
java.lang.String getChars : arg2<-recv
|}

(** [default_wrappers ()] parses {!default_wrapper_config}.  The parse
    is shared: rule sets are read-only after construction, and the
    defaults are requested once per analysed app.  The lock serialises
    the first force: apps analysed on several domains request the
    defaults concurrently, and a [Lazy.force] racing another domain's
    raises [CamlinternalLazy.Undefined]. *)
let default_wrappers =
  let memo = lazy (of_string default_wrapper_config) and lock = Mutex.create () in
  fun () -> Mutex.protect lock (fun () -> Lazy.force memo)

(** [default_natives ()] parses {!default_native_config} (shared, see
    {!default_wrappers}). *)
let default_natives =
  let memo = lazy (of_string default_native_config) and lock = Mutex.create () in
  fun () -> Mutex.protect lock (fun () -> Lazy.force memo)
