(* Tests for the µJimple IR: types, bodies/CFG, scene & hierarchy,
   builder DSL, pretty-printer and textual parser round-trip. *)

open Fd_ir
module T = Types
module S = Stmt
module B = Build

(* ---------------- types ---------------- *)

let test_typ_string_roundtrip () =
  let cases =
    [ "void"; "boolean"; "char"; "int"; "long"; "float"; "double";
      "java.lang.String"; "int[]"; "java.lang.Object[][]" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string) s s (T.string_of_typ (T.typ_of_string s)))
    cases

let test_typ_equal () =
  Alcotest.(check bool) "ref eq" true (T.equal_typ (T.Ref "a.B") (T.Ref "a.B"));
  Alcotest.(check bool) "ref ne" false (T.equal_typ (T.Ref "a.B") (T.Ref "a.C"));
  Alcotest.(check bool) "array" true
    (T.equal_typ (T.Array T.Int) (T.Array T.Int));
  Alcotest.(check bool) "array ne" false (T.equal_typ (T.Array T.Int) T.Int)

let test_method_sig_string () =
  let m = T.mk_method ~params:[ T.Int; T.Ref "java.lang.String" ] ~ret:T.Void
      "a.B" "foo" in
  Alcotest.(check string) "jimple style"
    "<a.B: void foo(int,java.lang.String)>"
    (T.string_of_method_sig m)

(* ---------------- builder & body ---------------- *)

let simple_class () =
  B.cls "t.Simple"
    [
      B.meth "run" (fun m ->
          let this = B.this m in
          let x = B.local m "x" in
          let y = B.local m "y" in
          B.const m x (B.i 1);
          B.label m "loop";
          B.binop m y "+" (B.v x) (B.i 1);
          B.ifgoto m (B.v y) S.Clt (B.i 10) "loop";
          B.vcall m this "t.Simple" "helper" [ B.v y ]);
    ]

let body_of cls name =
  match Jclass.find_method_named cls name with
  | Some m -> Option.get m.Jclass.jm_body
  | None -> Alcotest.fail ("method not found: " ^ name)

let test_builder_basic () =
  let c = simple_class () in
  let b = body_of c "run" in
  (* this-identity, x=1, y=x+1, if, call, auto return *)
  Alcotest.(check int) "6 statements" 6 (Body.length b);
  (match (Body.stmt b 0).S.s_kind with
  | S.Identity (_, S.Ithis "t.Simple") -> ()
  | _ -> Alcotest.fail "expected @this identity first");
  match (Body.stmt b 5).S.s_kind with
  | S.Return None -> ()
  | _ -> Alcotest.fail "expected auto-appended return"

let test_cfg_succs_preds () =
  let c = simple_class () in
  let b = body_of c "run" in
  (* stmt 3 is the conditional: succs are fall-through 4 and target 2 *)
  Alcotest.(check (list int)) "if succs" [ 4; 2 ] (Body.succs b 3);
  Alcotest.(check (list int)) "loop head preds" [ 1; 3 ] (Body.preds b 2);
  Alcotest.(check (list int)) "return succs" [] (Body.succs b 5)

(* [Body.forward] over a diamond (1 → 2|4 → 5) and a loop (6 → 5), with
   statements 8-9 that no path reaches: the in-states are the locals
   assigned on some path (union) or on every path (intersection) *)
let test_forward_dataflow () =
  let module SS = Set.Make (String) in
  let l = S.mk_local in
  let def x = S.Assign (S.Llocal (l x), S.Eimm (S.Iconst (S.CInt 1))) in
  let cond x = { S.c_op = S.Clt; c_left = S.Iloc (l x); c_right = S.Iconst (S.CInt 9) } in
  let b =
    Body.create ~locals:(List.map l [ "x"; "y"; "z"; "w"; "v" ])
      (List.mapi
         (fun i k -> { S.s_idx = i; s_kind = k; s_tag = None })
         [ def "x"; S.If (cond "x", 4); def "y"; S.Goto 5; def "z"; def "w";
           S.If (cond "w", 5); S.Return None; def "v"; S.Return None ])
  in
  let assigned join =
    Body.forward b ~entry:SS.empty
      ~transfer:(fun s a ->
        match Stmt.def_local s with
        | Some x -> SS.add x.S.l_name a
        | None -> a)
      ~join ~equal:SS.equal
    |> Array.map (Option.map SS.elements)
  in
  let some = List.map Option.some in
  Alcotest.(check (array (option (list string))))
    "may-assigned"
    (Array.of_list
       ((some
           [ []; [ "x" ]; [ "x" ]; [ "x"; "y" ]; [ "x" ];
             [ "w"; "x"; "y"; "z" ]; [ "w"; "x"; "y"; "z" ];
             [ "w"; "x"; "y"; "z" ] ])
       @ [ None; None ]))
    (assigned SS.union);
  Alcotest.(check (array (option (list string))))
    "must-assigned"
    (Array.of_list
       ((some
           [ []; [ "x" ]; [ "x" ]; [ "x"; "y" ]; [ "x" ]; [ "x" ];
             [ "w"; "x" ]; [ "w"; "x" ] ])
       @ [ None; None ]))
    (assigned SS.inter)

let test_label_resolution_error () =
  Alcotest.check_raises "undefined label"
    (B.Build_error "undefined label \"nowhere\"") (fun () ->
      ignore
        (B.cls "t.Bad" [ B.meth "m" (fun m -> B.goto m "nowhere") ]))

let test_duplicate_label_error () =
  Alcotest.check_raises "duplicate label"
    (B.Build_error "duplicate label \"l\"") (fun () ->
      ignore
        (B.cls "t.Bad2"
           [
             B.meth "m" (fun m ->
                 B.label m "l";
                 B.nop m;
                 B.label m "l";
                 B.nop m;
                 B.goto m "l");
           ]))

let test_local_interning () =
  let c =
    B.cls "t.Intern"
      [
        B.meth "m" (fun m ->
            let a = B.local m "v" in
            let b = B.local m "v" in
            Alcotest.(check bool) "same local" true (a == b);
            B.const m a (B.i 0));
      ]
  in
  let b = body_of c "m" in
  Alcotest.(check int) "one local" 1 (List.length b.Body.locals)

let test_goto_no_auto_return () =
  (* a body ending in goto back into itself must not get an extra
     return *)
  let c =
    B.cls "t.Loop"
      [
        B.meth "m" (fun m ->
            B.label m "top";
            B.nop m;
            B.goto m "top");
      ]
  in
  let b = body_of c "m" in
  Alcotest.(check int) "2 stmts" 2 (Body.length b)

let test_exit_stmts () =
  let c =
    B.cls "t.Exits"
      [
        B.meth "m" (fun m ->
            let x = B.local m "x" in
            B.const m x (B.i 0);
            B.ifgoto m (B.v x) S.Ceq (B.i 0) "out";
            B.retv m (B.v x);
            B.label m "out";
            B.ret m);
      ]
  in
  let b = body_of c "m" in
  Alcotest.(check (list int)) "two exits" [ 2; 3 ] (Body.exit_stmts b)

let test_find_tagged () =
  let c =
    B.cls "t.Tagged"
      [
        B.meth "m" (fun m ->
            let x = B.local m "x" in
            B.const m ~tag:"src" x (B.s "secret");
            B.scall m ~tag:"sink" "t.Sink" "leak" [ B.v x ]);
      ]
  in
  let b = body_of c "m" in
  Alcotest.(check int) "one src" 1 (List.length (Body.find_tagged b "src"));
  Alcotest.(check int) "one sink" 1 (List.length (Body.find_tagged b "sink"));
  Alcotest.(check int) "none" 0 (List.length (Body.find_tagged b "zzz"))

let test_uses_local () =
  let c =
    B.cls "t.Uses"
      [
        B.meth "m" (fun m ->
            let x = B.local m "x" and y = B.local m "y" in
            B.const m x (B.i 1);
            B.move m y x;
            B.store m y (B.fld "t.Uses" "f") (B.v x));
      ]
  in
  let b = body_of c "m" in
  let x = S.mk_local "x" and y = S.mk_local "y" in
  Alcotest.(check bool) "x=1 doesn't use x" false (Body.uses_local (Body.stmt b 0) x);
  Alcotest.(check bool) "y=x uses x" true (Body.uses_local (Body.stmt b 1) x);
  Alcotest.(check bool) "y.f=x uses both" true
    (Body.uses_local (Body.stmt b 2) x && Body.uses_local (Body.stmt b 2) y)

(* [Liveness] on hand-built bodies: the locals live-in at each
   statement, by name *)
let live_sets b =
  let lv = Liveness.analyze b in
  let names =
    List.sort_uniq compare (List.map (fun l -> l.S.l_name) b.Body.locals)
  in
  List.init (Body.length b) (fun i ->
      List.filter (fun x -> Liveness.live_in lv i (S.mk_local x)) names)

let body_of_kinds locals kinds =
  Body.create ~locals:(List.map S.mk_local locals)
    (List.mapi (fun i k -> { S.s_idx = i; s_kind = k; s_tag = None }) kinds)

let test_liveness () =
  let l = S.mk_local in
  let def x = S.Assign (S.Llocal (l x), S.Eimm (S.Iconst (S.CInt 1))) in
  let copy x y = S.Assign (S.Llocal (l x), S.Eimm (S.Iloc (l y))) in
  let cond x =
    { S.c_op = S.Clt; c_left = S.Iloc (l x); c_right = S.Iconst (S.CInt 9) }
  in
  let check name want kinds locals =
    Alcotest.(check (list (list string))) name want
      (live_sets (body_of_kinds locals kinds))
  in
  (* a diamond: y is read on one arm only, z after the join; the
     last return is unreachable *)
  check "diamond"
    [ [ "y" ]; [ "x"; "y" ]; [ "y" ]; [ "z" ]; []; [ "z" ]; [] ]
    [ def "x"; S.If (cond "x", 4); copy "z" "y"; S.Goto 5; def "z";
      S.Return (Some (S.Iloc (l "z"))); S.Return None ]
    [ "x"; "y"; "z" ];
  (* a loop: i stays live around the back edge, s and t only until
     their reads, and u, never read, nowhere *)
  check "loop"
    [ [ "s"; "t" ]; [ "i"; "s"; "t" ]; [ "i"; "t" ]; [ "i" ]; [ "i" ]; [] ]
    [ def "i"; copy "u" "s"; copy "u" "t";
      S.Assign (S.Llocal (l "i"), S.Ebinop ("+", S.Iloc (l "i"), S.Iconst (S.CInt 1)));
      S.If (cond "i", 3); S.Return None ]
    [ "i"; "s"; "t"; "u" ];
  (* x = x.next reads x before it redefines it *)
  let next = Types.{ f_class = "t.N"; f_name = "next"; f_type = Ref "t.N" } in
  check "use and def in one statement"
    [ [ "x" ]; [ "x" ]; [] ]
    [ S.Assign (S.Llocal (l "x"), S.Efield (l "x", next));
      S.Assign (S.Llocal (l "x"), S.Efield (l "x", next)); S.Return None ]
    [ "x" ];
  check "defined, never read" [ []; [] ] [ def "x"; S.Return None ] [ "x" ];
  check "return x" [ [ "x" ] ] [ S.Return (Some (S.Iloc (l "x"))) ] [ "x" ];
  check "throw x" [ [ "x" ] ] [ S.Throw (S.Iloc (l "x")) ] [ "x" ];
  (* identity statements bind without killing: a parameter taint enters
     at statement 0, before its identity *)
  check "identity is transparent"
    [ [ "p" ]; [ "p" ]; [ "p" ]; [] ]
    [ S.Identity (l "this", S.Ithis "t.C"); S.Identity (l "p", S.Iparam 0);
      S.InvokeStmt
        { S.i_kind = S.Static;
          i_sig = Types.mk_method ~params:[ Types.Ref "t.C" ] "t.C" "use";
          i_recv = None; i_args = [ S.Iloc (l "p") ] };
      S.Return None ]
    [ "this"; "p" ];
  (* more locals than one set word holds *)
  let many = List.init 70 (Printf.sprintf "v%02d") in
  let reads = List.map (fun x -> copy "w" x) many in
  let lv =
    Liveness.analyze (body_of_kinds ("w" :: many) (reads @ [ S.Return None ]))
  in
  Alcotest.(check (list bool)) "70 locals: v69 live until its read"
    (List.init 71 (fun i -> i <= 69))
    (List.init 71 (fun i -> Liveness.live_in lv i (l "v69")));
  Alcotest.(check (list bool)) "70 locals: v00 live only at its read"
    (List.init 71 (fun i -> i = 0))
    (List.init 71 (fun i -> Liveness.live_in lv i (l "v00")))

(* [Liveness] against a plain set-based fixpoint on random bodies with
   branches, loops, identity statements and, in half of them, more
   than 63 read locals (two set words) *)
module Names = Set.Make (String)

let reference_live b =
  let n = Body.length b in
  let live = Array.make n Names.empty in
  let uses s =
    let acc = ref Names.empty in
    Body.iter_uses (fun x -> acc := Names.add x.S.l_name !acc) s;
    !acc
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let s = Body.stmt b i in
      let out =
        List.fold_left
          (fun acc j -> Names.union acc live.(j))
          Names.empty (Body.succs b i)
      in
      let out =
        match s.S.s_kind with
        | S.Assign (S.Llocal x, _) -> Names.remove x.S.l_name out
        | _ -> out
      in
      let v = Names.union (uses s) out in
      if not (Names.equal v live.(i)) then begin
        live.(i) <- v;
        changed := true
      end
    done
  done;
  live

let gen_live_body =
  let open QCheck.Gen in
  let pool = Array.init 80 (Printf.sprintf "v%02d") in
  let l i = S.mk_local pool.(i) in
  let loc = map l (int_bound 79) in
  let imm = frequency [ (4, map (fun x -> S.Iloc x) loc);
                        (1, return (S.Iconst (S.CInt 3))) ] in
  let next = Types.{ f_class = "t.N"; f_name = "next"; f_type = Ref "t.N" } in
  let* wide = bool in
  let* len = int_range 2 40 in
  let prefix =
    if wide then
      List.init 70 (fun i ->
          S.Assign (S.Llocal (l 79), S.Eimm (S.Iloc (l i))))
    else []
  in
  let n = List.length prefix + len in
  let kind i =
    let target = int_bound (n - 1) in
    let plain =
      [ (3, map2 (fun x e -> S.Assign (S.Llocal x, S.Eimm e)) loc imm);
        (2, map3 (fun x a c -> S.Assign (S.Llocal x, S.Ebinop ("+", a, c)))
              loc imm imm);
        (2, map2 (fun x y -> S.Assign (S.Llocal x, S.Efield (y, next))) loc loc);
        (1, map2 (fun y e -> S.Assign (S.Lfield (y, next), S.Eimm e)) loc imm);
        (1, map2 (fun x k -> S.Identity (x, S.Iparam k)) loc (int_bound 2));
        (1, map (fun x -> S.Identity (x, S.Ithis "t.C")) loc);
        (1, map2
              (fun r args ->
                S.InvokeStmt
                  { S.i_kind = S.Virtual;
                    i_sig = Types.mk_method "t.C" "use";
                    i_recv = Some r; i_args = args })
              loc (list_size (int_bound 2) imm));
        (1, map (fun t -> S.Goto t) target) ]
    in
    if i = n - 1 then
      oneof [ return (S.Return None); map (fun x -> S.Return (Some (S.Iloc x))) loc ]
    else
      frequency
        ((2, map2
               (fun x t ->
                 S.If ({ S.c_op = S.Clt; c_left = S.Iloc x;
                         c_right = S.Iconst (S.CInt 9) }, t))
               loc target)
        :: (1, map (fun x -> S.Return (Some (S.Iloc x))) loc)
        :: plain)
  in
  let* tail =
    flatten_l (List.init len (fun k -> kind (List.length prefix + k)))
  in
  return (body_of_kinds (Array.to_list pool) (prefix @ tail))

let prop_liveness_matches_reference =
  QCheck.Test.make ~name:"liveness equals a set-based fixpoint" ~count:200
    (QCheck.make
       ~print:(fun b ->
         String.concat "\n"
           (List.init (Body.length b) (fun i -> S.to_string (Body.stmt b i))))
       gen_live_body)
    (fun b ->
      let lv = Liveness.analyze b and want = reference_live b in
      let names = "absent" :: List.init 80 (Printf.sprintf "v%02d") in
      List.for_all
        (fun i ->
          List.for_all
            (fun x ->
              Liveness.live_in lv i (S.mk_local x) = Names.mem x want.(i))
            names)
        (List.init (Body.length b) Fun.id))

(* ---------------- scene & hierarchy ---------------- *)

let hierarchy_scene () =
  let sc = Scene.create () in
  Scene.add_class sc (Jclass.mk "java.lang.Object" ~super:None);
  Scene.add_class sc
    (B.iface "t.Listener" [ B.abstract_meth "onEvent" ~params:[ T.Int ] ]);
  Scene.add_class sc (B.cls "t.Base" [ B.meth "m" (fun m -> B.ret m) ]);
  Scene.add_class sc
    (B.cls "t.Mid" ~super:"t.Base" ~interfaces:[ "t.Listener" ]
       [ B.meth "onEvent" ~params:[ T.Int ] (fun m -> B.ret m) ]);
  Scene.add_class sc
    (B.cls "t.Leaf" ~super:"t.Mid" [ B.meth "m" (fun m -> B.ret m) ]);
  sc

let test_subtyping () =
  let sc = hierarchy_scene () in
  Alcotest.(check bool) "leaf <: base" true (Scene.is_subtype sc "t.Leaf" "t.Base");
  Alcotest.(check bool) "leaf <: listener (via mid)" true
    (Scene.is_subtype sc "t.Leaf" "t.Listener");
  Alcotest.(check bool) "base not <: mid" false
    (Scene.is_subtype sc "t.Base" "t.Mid");
  Alcotest.(check bool) "anything <: Object" true
    (Scene.is_subtype sc "t.Base" "java.lang.Object");
  Alcotest.(check bool) "reflexive" true (Scene.is_subtype sc "t.Mid" "t.Mid")

let test_phantom_resolve () =
  let sc = hierarchy_scene () in
  let c = Scene.resolve sc "android.app.Activity" in
  Alcotest.(check bool) "phantom" true c.Jclass.c_phantom;
  Alcotest.(check bool) "now registered" true (Scene.mem sc "android.app.Activity");
  Alcotest.(check bool) "phantom <: Object" true
    (Scene.is_subtype sc "android.app.Activity" "java.lang.Object")

let test_dispatch () =
  let sc = hierarchy_scene () in
  (* m declared on Base, overridden on Leaf: call with static type Base
     can dispatch to Base.m (for Base/Mid receivers) or Leaf.m *)
  let targets = Scene.dispatch_targets sc ~static_type:"t.Base" ("m", []) in
  let names =
    List.sort compare
      (List.map (fun ((c : Jclass.t), _) -> c.Jclass.c_name) targets)
  in
  Alcotest.(check (list string)) "CHA targets" [ "t.Base"; "t.Leaf" ] names;
  (* dispatch on the interface type reaches the implementor *)
  let tgts2 =
    Scene.dispatch_targets sc ~static_type:"t.Listener" ("onEvent", [ T.Int ])
  in
  Alcotest.(check (list string)) "interface dispatch" [ "t.Mid" ]
    (List.map (fun ((c : Jclass.t), _) -> c.Jclass.c_name) tgts2)

let test_resolve_concrete_inherited () =
  let sc = hierarchy_scene () in
  (* Mid inherits m from Base *)
  match Scene.resolve_concrete sc "t.Mid" ("m", []) with
  | Some (c, _) -> Alcotest.(check string) "declared on Base" "t.Base" c.Jclass.c_name
  | None -> Alcotest.fail "resolution failed"

let test_duplicate_class () =
  let sc = hierarchy_scene () in
  Alcotest.check_raises "duplicate" (Scene.Duplicate_class "t.Base") (fun () ->
      Scene.add_class sc (B.cls "t.Base" []))

let test_superclasses_chain () =
  let sc = hierarchy_scene () in
  Alcotest.(check (list string)) "chain"
    [ "t.Mid"; "t.Base"; "java.lang.Object" ]
    (Scene.superclasses sc "t.Leaf")

(* malformed input: [c.A extends c.B], [c.B extends c.A], neither
   declaring a method.  Resolution walks the cycle and must stop. *)
let test_superclass_cycle () =
  let sc = Scene.create () in
  Scene.add_class sc (B.cls "c.A" ~super:"c.B" []);
  Scene.add_class sc (B.cls "c.B" ~super:"c.A" []);
  let none = Alcotest.(check bool) in
  none "resolve_concrete_uncached" true
    (Scene.resolve_concrete_uncached sc "c.A" ("m", []) = None);
  none "resolve_concrete_named" true
    (Scene.resolve_concrete_named sc "c.A" "m" = None);
  Alcotest.(check int) "dispatch_targets" 0
    (List.length (Scene.dispatch_targets sc ~static_type:"c.A" ("m", [])))

(* ---------------- scene cache maintenance ---------------- *)

(* Inserting a class keeps the memoised hierarchy answers it cannot
   change.  The property: warm a random scene's caches, insert a class
   through one of the insertion paths, and every query must answer
   exactly as on a scene that replayed the same mutations cold, list
   order included. *)

let universe = 14
let hname i = Printf.sprintf "h.C%d" i
let fresh_name = "h.Fresh"

(* a class of the universe: a superclass of lower index (so superclass
   chains are acyclic), interfaces of any index, some of [m]/[n] at
   arity 0 or 1, abstract or not *)
type hdef = {
  h_super : int option;
  h_ifaces : int list;
  h_iface : bool;
  h_meths : (string * int * bool) list;
}

let gen_hdef i =
  let open QCheck.Gen in
  let* h_super =
    if i = 0 then return None else opt ~ratio:0.7 (int_bound (i - 1))
  in
  let* h_ifaces = list_size (int_bound 2) (int_bound (universe - 1)) in
  let* h_iface = frequency [ (4, return false); (1, return true) ] in
  let* h_meths =
    list_size (int_bound 3)
      (triple (oneofl [ "m"; "n" ]) (int_bound 1)
         (frequency [ (3, return false); (1, return true) ]))
  in
  return { h_super; h_ifaces; h_iface; h_meths }

let class_of name d =
  let meth (n, arity, abstract) =
    let params = List.init arity (fun _ -> T.Ref T.object_class) in
    if abstract then B.abstract_meth n ~params name
    else B.meth n ~params (fun m -> B.ret m) name
  in
  let super =
    match d.h_super with Some j -> hname j | None -> T.object_class
  in
  Jclass.mk name ~super:(Some super) ~interfaces:(List.map hname d.h_ifaces)
    ~is_interface:d.h_iface ~methods:(List.map meth d.h_meths)

type query =
  | Q_super of string
  | Q_sub of string
  | Q_dispatch of string * int  (** static type, index into [subsigs] *)
  | Q_concrete of string * int

let subsigs =
  let obj = [ T.Ref T.object_class ] in
  [| ("m", []); ("m", obj); ("n", []); ("n", obj) |]

let query_names =
  fresh_name :: T.object_class :: "h.Nowhere" :: List.init universe hname

let answer sc = function
  | Q_super x -> Scene.supertypes sc x
  | Q_sub x ->
      List.map (fun (c : Jclass.t) -> c.Jclass.c_name) (Scene.subtypes sc x)
  | Q_dispatch (x, k) ->
      List.map
        (fun ((c : Jclass.t), (m : Jclass.jmethod)) ->
          c.Jclass.c_name ^ "#" ^ m.Jclass.jm_sig.T.m_name)
        (Scene.dispatch_targets sc ~static_type:x subsigs.(k))
  | Q_concrete (x, k) -> (
      match Scene.resolve_concrete sc x subsigs.(k) with
      | Some (c, _) -> [ c.Jclass.c_name ]
      | None -> [])

let all_queries =
  List.concat_map
    (fun x ->
      [ Q_super x; Q_sub x ]
      @ List.concat_map
          (fun k -> [ Q_dispatch (x, k); Q_concrete (x, k) ])
          [ 0; 1; 2; 3 ])
    query_names

(* the insertion under test *)
type insertion =
  | Ins_cold of int  (** an unregistered class into a scene never queried *)
  | Ins_fresh of hdef  (** [h.Fresh], which no class names *)
  | Ins_unregistered of int  (** an unregistered class of the universe *)
  | Ins_replace of int * hdef  (** a registered class, redefined *)
  | Ins_phantom of int  (** materialised as a phantom, then upgraded *)

type scenario = {
  defs : hdef array;
  registered : bool array;
  warm : query list;
  ins : insertion;
}

let gen_scenario =
  let open QCheck.Gen in
  let* defs = flatten_a (Array.init universe gen_hdef) in
  (* 10 to 13 registered classes *)
  let* missing = int_range 1 4 in
  let* perm = shuffle_l (List.init universe Fun.id) in
  let registered = Array.make universe true in
  List.iteri (fun k i -> if k < missing then registered.(i) <- false) perm;
  let indices = List.init universe Fun.id in
  let unregistered = List.filter (fun i -> not registered.(i)) indices in
  let registered_l = List.filter (fun i -> registered.(i)) indices in
  let* warm =
    list_size (int_range 1 40)
      (let* x = oneofl query_names and* k = int_bound 3 and* q = int_bound 3 in
       return
         (match q with
         | 0 -> Q_super x
         | 1 -> Q_sub x
         | 2 -> Q_dispatch (x, k)
         | _ -> Q_concrete (x, k)))
  in
  let* ins =
    let* u = oneofl unregistered and* r = oneofl registered_l in
    let* fresh = gen_hdef universe and* redef = gen_hdef r in
    oneofl
      [
        Ins_cold u;
        Ins_fresh fresh;
        Ins_unregistered u;
        Ins_replace (r, redef);
        Ins_phantom u;
      ]
  in
  return { defs; registered; warm; ins }

let print_scenario sc =
  Printf.sprintf "registered=[%s] warm=%d insertion=%s"
    (String.concat ";"
       (List.filter_map
          (fun i -> if sc.registered.(i) then Some (string_of_int i) else None)
          (List.init universe Fun.id)))
    (List.length sc.warm)
    (match sc.ins with
    | Ins_cold i -> "cold " ^ hname i
    | Ins_fresh _ -> "fresh"
    | Ins_unregistered i -> "unregistered " ^ hname i
    | Ins_replace (i, _) -> "replace " ^ hname i
    | Ins_phantom i -> "phantom " ^ hname i)

(* replay a scenario: register, optionally warm, insert *)
let play ~warm s =
  let sc = Scene.create () in
  Array.iteri
    (fun i d ->
      if s.registered.(i) then Scene.add_class sc (class_of (hname i) d))
    s.defs;
  let warm_up () =
    if warm then List.iter (fun q -> ignore (answer sc q)) s.warm
  in
  (match s.ins with
  | Ins_cold i -> Scene.add_class sc (class_of (hname i) s.defs.(i))
  | Ins_fresh d ->
      warm_up ();
      Scene.add_class sc (class_of fresh_name d)
  | Ins_unregistered i ->
      warm_up ();
      Scene.add_class sc (class_of (hname i) s.defs.(i))
  | Ins_replace (i, d) ->
      warm_up ();
      Scene.add_or_replace sc (class_of (hname i) d)
  | Ins_phantom i ->
      warm_up ();
      ignore (Scene.resolve sc (hname i));
      warm_up ();
      Scene.add_or_replace sc (class_of (hname i) s.defs.(i)));
  List.map (answer sc) all_queries

let prop_scene_insert_keeps_caches_exact =
  QCheck.Test.make ~name:"scene insertion: warm caches answer as a cold rebuild"
    ~count:300
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun s -> play ~warm:true s = play ~warm:false s)

(* a fresh, unnamed class whose insertion makes the class table grow
   its bucket array (the 257th binding) reorders [all_classes], but
   cones walk the subtype index, not the table: a cone and a dispatch
   answer cached before the growth stay what a cold scene gives, order
   included *)
let test_insert_growing_table () =
  let build () =
    let sc = Scene.create () in
    Scene.add_class sc (B.cls "g.Base" [ B.meth "m" (fun m -> B.ret m) ]);
    for i = 1 to 255 do
      Scene.add_class sc
        (B.cls (Printf.sprintf "g.S%d" i) ~super:"g.Base"
           [ B.meth "m" (fun m -> B.ret m) ])
    done;
    sc
  in
  let cone sc =
    ( List.map
        (fun (c : Jclass.t) -> c.Jclass.c_name)
        (Scene.subtypes sc "g.Base"),
      List.map
        (fun ((c : Jclass.t), _) -> c.Jclass.c_name)
        (Scene.dispatch_targets sc ~static_type:"g.Base" ("m", [])) )
  in
  let warm = build () and cold = build () in
  ignore (cone warm);
  Scene.add_class warm (B.cls "g.Other" []);
  Scene.add_class cold (B.cls "g.Other" []);
  Alcotest.(check (pair (list string) (list string)))
    "cone order" (cone cold) (cone warm)

(* Cones and dispatch against a reference model: the cone of [x] is
   every class that a scene holding the same classes, never queried,
   calls a subtype of [x] ([List.filter is_subtype all_classes]), and
   dispatch resolves each non-interface class of it.  A random
   sequence of insertions, with warming queries in between, always
   contains a replacement that changes a class's parents, a phantom
   later upgraded, a class naming an unregistered parent, a superclass
   cycle and a class listing one interface twice.  Then a copy of the
   scene is mutated, and the original must answer as before. *)

let kname i = Printf.sprintf "k.C%d" i
let k_universe = 10

let k_names = T.object_class :: "k.U0" :: "k.U1" :: List.init k_universe kname

type kdef = {
  k_super : string;
  k_ifaces : string list;
  k_iface : bool;
  k_meths : (string * int * bool) list;
}

type kop =
  | K_add of string * kdef  (** [add_or_replace] *)
  | K_resolve of string
  | K_warm of string  (** dispatch queries on every subsignature *)

let kclass name d =
  let meth (n, arity, abstract) =
    let params = List.init arity (fun _ -> T.Ref T.object_class) in
    if abstract then B.abstract_meth n ~params name
    else B.meth n ~params (fun m -> B.ret m) name
  in
  Jclass.mk name ~super:(Some d.k_super) ~interfaces:d.k_ifaces
    ~is_interface:d.k_iface ~methods:(List.map meth d.k_meths)

(* superclasses of [k.C{i}] come from below it (or [Object] and the
   unregistered [k.U*]), so the only superclass cycle is the one
   [k.C0]/[k.C1] close on purpose; like every class, those two declare
   a random subset of the subsignatures, so resolution also walks the
   cycle without finding a declaration *)
let gen_kdef ?super i =
  let open QCheck.Gen in
  let* k_super =
    match super with
    | Some s -> return s
    | None ->
        oneofl
          (T.object_class :: "k.U0" :: "k.U1"
          :: List.init (max 0 (i - 2)) (fun j -> kname (j + 2))
          @ [ kname 0; kname 1 ])
  in
  let* k_ifaces = list_size (int_bound 2) (oneofl k_names) in
  let* k_iface = frequency [ (4, return false); (1, return true) ] in
  let* k_meths =
    list_size (int_bound 3)
      (triple (oneofl [ "m"; "n" ]) (int_bound 1)
         (frequency [ (3, return false); (1, return true) ]))
  in
  return { k_super; k_ifaces; k_iface; k_meths }

(* random operations on the free names [k.C4] .. [k.C9] *)
let gen_kop =
  let open QCheck.Gen in
  let* i = int_range 4 (k_universe - 1) in
  frequency
    [
      (3, map (fun d -> K_add (kname i, d)) (gen_kdef i));
      (1, return (K_resolve (kname i)));
      (2, map (fun x -> K_warm x) (oneofl k_names));
    ]

let rec interleave a b =
  let open QCheck.Gen in
  match (a, b) with
  | [], l | l, [] -> return l
  | x :: a', y :: b' ->
      let* left = bool in
      if left then map (List.cons x) (interleave a' b)
      else map (List.cons y) (interleave a b')

let gen_kscript =
  let open QCheck.Gen in
  let supers_c3 = [ T.object_class; "k.U1"; kname 0; kname 2 ] in
  let* s3 = oneofl supers_c3 in
  let* s3' = oneofl (List.filter (( <> ) s3) supers_c3) in
  let* c0 = gen_kdef ~super:(kname 1) 0 and* c1 = gen_kdef ~super:(kname 0) 1 in
  let* d2 = gen_kdef 2 and* d3 = gen_kdef ~super:s3 3
  and* d3' = gen_kdef ~super:s3' 3 and* d4 = gen_kdef 4
  and* d5 = gen_kdef ~super:"k.U0" 5 and* twice = oneofl k_names in
  let required =
    [
      K_add (kname 0, { c0 with k_iface = false });
      K_add (kname 1, { c1 with k_iface = false });
      K_resolve (kname 2);
      K_add (kname 2, d2);
      K_add (kname 3, d3);
      K_add (kname 3, d3');
      K_add (kname 4, { d4 with k_ifaces = [ twice; twice ] });
      K_add (kname 5, d5);
    ]
  in
  let* random = list_size (int_range 5 25) gen_kop in
  let* ops = interleave required random in
  let* copy_ops = list_size (int_range 1 6) gen_kop in
  (* the copy also takes a replacement of [k.C3] with other parents *)
  return (ops, K_add (kname 3, d3) :: copy_ops)

let print_kop = function
  | K_add (x, d) ->
      Printf.sprintf "add %s extends %s implements [%s]%s" x d.k_super
        (String.concat "," d.k_ifaces)
        (if d.k_iface then " (interface)" else "")
  | K_resolve x -> "resolve " ^ x
  | K_warm x -> "warm " ^ x

let print_kscript (ops, copy_ops) =
  String.concat "; " (List.map print_kop ops)
  ^ " || copy: "
  ^ String.concat "; " (List.map print_kop copy_ops)

let run_kop sc = function
  | K_add (x, d) -> Scene.add_or_replace sc (kclass x d)
  | K_resolve x -> ignore (Scene.resolve sc x)
  | K_warm x ->
      Array.iter
        (fun subsig -> ignore (Scene.dispatch_targets sc ~static_type:x subsig))
        subsigs

let target_name ((c : Jclass.t), (m : Jclass.jmethod)) =
  c.Jclass.c_name ^ "#" ^ m.Jclass.jm_sig.T.m_name

(* every cone and dispatch answer of [sc], in the order it gives them *)
let cones sc =
  List.map
    (fun x ->
      ( List.map (fun (c : Jclass.t) -> c.Jclass.c_name) (Scene.subtypes sc x),
        List.init 4 (fun k ->
            List.map target_name
              (Scene.dispatch_targets sc ~static_type:x subsigs.(k))) ))
    k_names

(* the same answers as sets, from the model *)
let model_cones sc =
  let cold = Scene.create () in
  List.iter (Scene.add_class cold) (Scene.all_classes sc);
  List.map
    (fun x ->
      let cone =
        List.filter
          (fun (c : Jclass.t) -> Scene.is_subtype cold c.Jclass.c_name x)
          (Scene.all_classes cold)
      in
      ( List.sort compare
          (List.map (fun (c : Jclass.t) -> c.Jclass.c_name) cone),
        List.init 4 (fun k ->
            List.filter_map
              (fun (c : Jclass.t) ->
                if c.Jclass.c_is_interface then None
                else
                  Option.map target_name
                    (Scene.resolve_concrete_uncached cold c.Jclass.c_name
                       subsigs.(k)))
              cone
            |> List.sort_uniq compare) ))
    k_names

let as_sets =
  List.map (fun (cone, targets) ->
      (List.sort compare cone, List.map (List.sort compare) targets))

let prop_cones_match_model =
  QCheck.Test.make ~name:"scene cones and dispatch equal the filter model"
    ~count:300
    (QCheck.make ~print:print_kscript gen_kscript)
    (fun (ops, copy_ops) ->
      let sc = Scene.create () in
      List.iter (run_kop sc) ops;
      let before = cones sc in
      let copy = Scene.copy sc in
      List.iter (run_kop copy) copy_ops;
      as_sets before = model_cones sc
      && as_sets (cones copy) = model_cones copy
      && cones sc = before)

(* ---------------- pretty / parser round-trip ---------------- *)

let leakage_like () =
  let user_t = T.Ref "de.User" in
  B.cls "de.LeakageApp" ~super:"android.app.Activity"
    ~fields:[ ("user", user_t) ]
    [
      B.meth "onRestart" (fun m ->
          let this = B.this m in
          let et = B.local m "et" ~ty:(T.Ref "android.widget.EditText") in
          let pwd = B.local m "pwd" in
          let u = B.local m "u" ~ty:user_t in
          B.vcall m ~ret:et this "android.app.Activity" "findViewById"
            [ B.i 42 ];
          B.vcall m ~ret:pwd et "android.widget.EditText" "toString" [];
          B.ifgoto m (B.v pwd) S.Ceq B.nul "out";
          B.newc m u "de.User" [ B.v pwd ];
          B.store m this (B.fld "de.LeakageApp" "user") (B.v u);
          B.label m "out";
          B.ret m);
      B.meth "sendMessage" ~params:[ T.Ref "android.view.View" ] (fun m ->
          let this = B.this m in
          let _view = B.param m 0 "view" in
          let u = B.local m "u" in
          let p = B.local m "p" in
          let sms = B.local m "sms" in
          let obf = B.local m "obf" in
          B.load m u this (B.fld "de.LeakageApp" "user");
          B.ifgoto m (B.v u) S.Ceq B.nul "out";
          B.vcall m ~ret:p u "de.User" "getPassword" [];
          B.const m obf (B.s "");
          B.label m "loop";
          B.binop m obf "+" (B.v obf) (B.v p);
          B.ifgoto m (B.v obf) S.Cne B.nul "loop";
          B.scall m ~ret:sms "android.telephony.SmsManager" "getDefault" [];
          B.vcall m ~tag:"sms-sink" sms "android.telephony.SmsManager"
            "sendTextMessage"
            [ B.s "+44 020"; B.nul; B.v obf; B.nul; B.nul ];
          B.label m "out";
          B.ret m);
      B.native_meth "nativeHelper" ~params:[ T.Ref "java.lang.Object" ]
        ~ret:(T.Ref "java.lang.Object");
    ]

let norm_class (c : Jclass.t) = Pretty.class_to_string c

let test_roundtrip_leakage () =
  let c = leakage_like () in
  let printed = Pretty.class_to_string c in
  match Parser.parse_string printed with
  | [ c2 ] ->
      Alcotest.(check string) "round-trip stable" printed (norm_class c2)
  | cs -> Alcotest.fail (Printf.sprintf "expected 1 class, got %d" (List.length cs))

let test_parse_handwritten () =
  let src =
    {|
// a hand-written µJimple unit
class t.Handwritten extends java.lang.Object implements t.I {
  field data : java.lang.String;
  static method void main() {
    local o : t.Handwritten;
    local s : java.lang.String;
    local arr : int[];
    o = new t.Handwritten;
    specialinvoke o.t.Handwritten#<init>();
    s = staticinvoke t.Source#secret() @"src";
    o.t.Handwritten#data = s;
    s = o.t.Handwritten#data;
    arr = newarray int[10];
    arr[0] = 5;
    static t.G#cache = s;
    s = static t.G#cache;
   top:
    if s == null goto done;
    staticinvoke t.Sink#leak(s) @"snk";
    goto top;
   done:
    return;
  }
}
interface t.I {
  abstract method void poke(int);
}
|}
  in
  match Parser.parse_string src with
  | [ c; i ] ->
      Alcotest.(check string) "class name" "t.Handwritten" c.Jclass.c_name;
      Alcotest.(check bool) "interface flag" true i.Jclass.c_is_interface;
      Alcotest.(check (list string)) "implements" [ "t.I" ] c.Jclass.c_interfaces;
      let m = Option.get (Jclass.find_method_named c "main") in
      Alcotest.(check bool) "static" true m.Jclass.jm_static;
      let b = Option.get m.Jclass.jm_body in
      (* tags survived *)
      Alcotest.(check int) "src tag" 1 (List.length (Body.find_tagged b "src"));
      Alcotest.(check int) "snk tag" 1 (List.length (Body.find_tagged b "snk"));
      (* parse -> print -> parse is stable *)
      let p1 = Pretty.class_to_string c in
      (match Parser.parse_string p1 with
      | [ c2 ] -> Alcotest.(check string) "stable" p1 (Pretty.class_to_string c2)
      | _ -> Alcotest.fail "re-parse failed")
  | cs -> Alcotest.fail (Printf.sprintf "expected 2 classes, got %d" (List.length cs))

let test_parse_errors () =
  let bad =
    [
      "class {";
      "class A extends {";
      "class A { field x }";
      "class A { method void m() { x = ; } }";
      "class A { method void m() { goto missing; } }";
      "class A { method void m() { if x == goto l; } }";
      "klass A {}";
      (* a decimal escape beyond a byte *)
      {|class A { method void m() { x = "\504"; } }|};
    ]
  in
  List.iter
    (fun src ->
      match Parser.parse_string src with
      | exception Parser.Parse_error _ -> ()
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected parse error on %S" src))
    bad;
  (* a backslash ending the input inside a string literal: the literal
     is unterminated, not an escape of NUL *)
  List.iter
    (fun (src, line) ->
      match Parser.parse_string src with
      | exception Parser.Parse_error (l, msg) ->
          Alcotest.(check (pair int string))
            src (line, "unterminated string literal") (l, msg)
      | _ -> Alcotest.fail (Printf.sprintf "expected parse error on %S" src))
    [
      ({|class A { method void m() { x = "abc\|}, 1);
      ("class A {\n  method void m() {\n    x = \"a\nb\\", 4);
    ]

let test_parse_comments_and_ops () =
  let src =
    {|
class t.Ops {
  method int f(int, int) {
    local a : int; local b : int; local c : int;
    a := @parameter0;
    b := @parameter1;
    /* block comment */
    c = a + b;
    c = a - b;
    c = a * b;
    c = c << a;
    c = neg c;
    if a < b goto l;
    if a >= b goto l;
   l:
    return c;
  }
}
|}
  in
  match Parser.parse_string src with
  | [ c ] ->
      let m = Option.get (Jclass.find_method_named c "f") in
      let b = Option.get m.Jclass.jm_body in
      Alcotest.(check int) "stmt count" 10 (Body.length b);
      let p = Pretty.class_to_string c in
      (match Parser.parse_string p with
      | [ c2 ] -> Alcotest.(check string) "stable" p (Pretty.class_to_string c2)
      | _ -> Alcotest.fail "re-parse failed")
  | _ -> Alcotest.fail "parse failed"

let lex src =
  let lx = Lexer.create src in
  let rec go acc =
    match Lexer.next lx with
    | Lexer.EOF -> List.rev acc
    | tok -> go (Lexer.string_of_token tok :: acc)
  in
  go []

let test_lexer_identifiers () =
  let id = Printf.sprintf "identifier %S" and op = Printf.sprintf "operator %S" in
  let dot = "'.'" in
  let cases =
    [
      ("x.foo#f", [ id "x.foo"; "'#'"; id "f" ]);
      ("a.", [ id "a"; dot ]);
      ("a..b", [ id "a"; dot; dot; id "b" ]);
      ("a.1", [ id "a"; dot; "integer 1" ]);
      ("<init>", [ id "<init>" ]);
      ("p.Q.<clinit>", [ id "p.Q"; dot; id "<clinit>" ]);
      ("a < b", [ id "a"; op "<"; id "b" ]);
      (* '<' then an identifier but no '>': backtrack to the operator *)
      ("a <b;", [ id "a"; op "<"; id "b"; "';'" ]);
      ("a <b.c <= d", [ id "a"; op "<"; id "b.c"; op "<="; id "d" ]);
      ("$x_1.y$ _a", [ id "$x_1.y$"; id "_a" ]);
      ("abc", [ id "abc" ]);
      ("a.b9", [ id "a.b9" ]);
      ("x-12 007", [ id "x"; "integer -12"; "integer 7" ]);
      (string_of_int max_int, [ Printf.sprintf "integer %d" max_int ]);
    ]
  in
  List.iter
    (fun (src, want) -> Alcotest.(check (list string)) src want (lex src))
    cases;
  (match lex (string_of_int max_int ^ "0") with
  | exception Lexer.Lex_error (1, _) -> ()
  | _ -> Alcotest.fail "an integer literal beyond max_int must not lex");
  (* the line count survives identifiers next to newlines *)
  let lx = Lexer.create "a.b\nc" in
  ignore (Lexer.next lx);
  ignore (Lexer.next lx);
  Alcotest.(check int) "line" 2 (Lexer.line lx)

(* The front end's outputs over a fixed corpus, pinned by MD5: every
   DroidBench class and a seeded generator corpus rendered by [Pretty],
   and a seeded chaos corruption of each of those sources.  For each
   source the token stream with line numbers and the re-rendered
   parsed classes are hashed; for each corrupted source, what the
   lexer and the parser make of it (token or class count, or the
   error's line and message). *)
let pin_sources () =
  let render classes = List.map Pretty.class_to_string classes in
  let droidbench =
    List.concat_map
      (fun a -> render a.Fd_droidbench.Bench_app.app_apk.Fd_frontend.Apk.apk_classes)
      Fd_droidbench.Suite.all
  in
  let generated =
    let module G = Fd_appgen.Generator in
    List.concat_map
      (fun profile ->
        List.concat_map
          (fun g -> render g.G.ga_apk.Fd_frontend.Apk.apk_classes)
          (G.corpus ~profile ~seed:23 12))
      [ G.Malware; G.Play; G.Icc ]
  in
  droidbench @ generated

let lex_outcome buf src =
  let lx = Lexer.create src in
  let rec go n =
    match Lexer.next lx with
    | Lexer.EOF -> Printf.bprintf buf "tokens %d\n" n
    | _ -> go (n + 1)
    | exception Lexer.Lex_error (line, msg) ->
        Printf.bprintf buf "lex %d: %s\n" line msg
  in
  go 0

let parse_outcome buf src =
  match Parser.parse_string src with
  | cs -> Printf.bprintf buf "classes %d\n" (List.length cs)
  | exception Parser.Parse_error (line, msg) ->
      Printf.bprintf buf "parse %d: %s\n" line msg

let test_frontend_pinned () =
  let sources = pin_sources () in
  let tokens = Buffer.create (1 lsl 20)
  and classes = Buffer.create (1 lsl 20)
  and chaos = Buffer.create (1 lsl 16) in
  List.iter
    (fun src ->
      let lx = Lexer.create src in
      let rec go () =
        match Lexer.next lx with
        | Lexer.EOF -> Buffer.add_string tokens "EOF\n"
        | tok ->
            Printf.bprintf tokens "%s %d\n" (Lexer.string_of_token tok)
              (Lexer.line lx);
            go ()
      in
      go ();
      List.iter
        (fun c -> Buffer.add_string classes (Pretty.class_to_string c))
        (Parser.parse_string src))
    sources;
  let c = Fd_resilience.Chaos.create ~seed:23 ~rate:1.0 in
  List.iter
    (fun src ->
      for _ = 1 to 2 do
        let bad = Fd_resilience.Chaos.corrupt_string c src in
        lex_outcome chaos bad;
        parse_outcome chaos bad
      done)
    sources;
  let md5 b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  Alcotest.(check int) "sources" 527 (List.length sources);
  Alcotest.(check string) "token stream" "7131ed56aad2d9ebf77579691cb9d0dc"
    (md5 tokens);
  Alcotest.(check string) "parsed classes" "27cd23c9f597b05a042f2aa581dcbc30"
    (md5 classes);
  Alcotest.(check string) "chaos outcomes" "a5bb52a851d9fae3c360752b85b372b8"
    (md5 chaos)

(* property: every DSL-built random straight-line body round-trips *)

let gen_prog : Jclass.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 1 12 in
  let* ops = list_size (return n) (int_bound 6) in
  return
    (B.cls "t.Rand"
       [
         B.meth "m" (fun m ->
             let x = B.local m "x" and y = B.local m "y" in
             B.const m x (B.i 0);
             B.const m y (B.s "s");
             List.iter
               (fun op ->
                 match op with
                 | 0 -> B.move m x y
                 | 1 -> B.binop m x "+" (B.v x) (B.v y)
                 | 2 -> B.store m x (B.fld "t.Rand" "f") (B.v y)
                 | 3 -> B.load m y x (B.fld "t.Rand" "f")
                 | 4 -> B.scall m ~ret:y "t.Lib" "id" [ B.v x ]
                 | 5 -> B.newc m x "t.Rand" []
                 | _ -> B.cast m y (T.Ref "java.lang.String") (B.v x))
               ops);
       ])

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"pretty/parse round-trip (random programs)" ~count:100
    (QCheck.make ~print:Pretty.class_to_string gen_prog) (fun c ->
      let p = Pretty.class_to_string c in
      match Parser.parse_string p with
      | [ c2 ] -> Pretty.class_to_string c2 = p
      | _ -> false)

(* [Parser.parse_string] returns or raises one of its declared errors *)
let parses_or_fails src =
  match Parser.parse_string src with
  | _ -> true
  | exception Parser.Parse_error _ -> true
  | exception Lexer.Lex_error _ -> true
  | exception _ -> false

(* fuzz: arbitrary input never crashes the textual frontend with
   anything other than its declared exceptions *)
let prop_parser_total =
  QCheck.Test.make ~name:"parser is total (errors are Parse/Lex_error)"
    ~count:500
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 200) QCheck.Gen.printable)
    parses_or_fails

(* fuzz around valid programs: mutate a printed class by deleting a
   random slice; must never crash with an unexpected exception *)
let prop_parser_mutation =
  QCheck.Test.make ~name:"parser survives mutations of valid programs"
    ~count:300
    QCheck.(pair (int_bound 1000) (pair small_nat small_nat))
    (fun (seed, (ofs, len)) ->
      ignore seed;
      let valid = Pretty.class_to_string (simple_class ()) in
      let n = String.length valid in
      let ofs = ofs mod n in
      let len = min len (n - ofs) in
      let mutated =
        String.sub valid 0 ofs ^ String.sub valid (ofs + len) (n - ofs - len)
      in
      parses_or_fails mutated)

(* The lexer reads its input with unchecked byte loads behind explicit
   bounds.  Whatever the input, the parser returns or raises one of its
   declared errors: random bytes of any value, every truncation of a
   real class, inputs that end inside each kind of token, and corrupted
   real sources. *)
let bounds_class () =
  match Fd_droidbench.Suite.find "Button1" with
  | Some a ->
      Pretty.class_to_string
        (List.hd a.Fd_droidbench.Bench_app.app_apk.Fd_frontend.Apk.apk_classes)
  | None -> Alcotest.fail "Button1 is missing"

let test_truncations_in_bounds () =
  let src = bounds_class () in
  for n = 0 to String.length src do
    let cut = String.sub src 0 n in
    if not (parses_or_fails cut) then
      Alcotest.failf "undeclared exception on a truncation at %d" n
  done;
  (* inputs ending inside a comment, a string, an escape, a bracketed
     name and a number all fail with a declared error *)
  let head = "class A { method void m() { " in
  List.iter
    (fun tail ->
      match Parser.parse_string (head ^ tail) with
      | exception Parser.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected a parse error on %S" tail)
    [ "/* open"; "/*"; "/"; "// open"; {|x = "open|}; {|x = "\|}; {|x = "\1|};
      {|x = "\25|}; "specialinvoke b.C#<init"; "specialinvoke b.C#<"; "x = 12";
      "x = -"; "x = -7"; "if x <"; "if x >"; "x :"; "x !"; "x =" ]

let prop_parser_in_bounds =
  let src = lazy (bounds_class ()) in
  let gen =
    let open QCheck.Gen in
    oneof
      [
        string_size ~gen:char (int_bound 64);
        (let* n = int_bound 4096 and* edits = list_size (int_bound 3) (pair nat char) in
         let src = Lazy.force src in
         let cut = Bytes.of_string (String.sub src 0 (n mod (String.length src + 1))) in
         List.iter
           (fun (i, c) ->
             if Bytes.length cut > 0 then Bytes.set cut (i mod Bytes.length cut) c)
           edits;
         return (Bytes.to_string cut));
      ]
  in
  QCheck.Test.make ~name:"parser stays in bounds on bytes and cut sources"
    ~count:1000 (QCheck.make ~print:(Printf.sprintf "%S") gen) parses_or_fails

let prop_body_succs_in_range =
  QCheck.Test.make ~name:"all successors are valid indices" ~count:100
    (QCheck.make ~print:Pretty.class_to_string gen_prog) (fun c ->
      List.for_all
        (fun (m : Jclass.jmethod) ->
          match m.Jclass.jm_body with
          | None -> true
          | Some b ->
              let ok = ref true in
              Body.iter b (fun s ->
                  List.iter
                    (fun j -> if j < 0 || j >= Body.length b then ok := false)
                    (Body.succs b s.S.s_idx));
              !ok)
        c.Jclass.c_methods)

let () =
  Alcotest.run "fd_ir"
    [
      ( "types",
        [
          Alcotest.test_case "string round-trip" `Quick test_typ_string_roundtrip;
          Alcotest.test_case "equality" `Quick test_typ_equal;
          Alcotest.test_case "method sig printing" `Quick test_method_sig_string;
        ] );
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "cfg succs/preds" `Quick test_cfg_succs_preds;
          Alcotest.test_case "forward dataflow" `Quick test_forward_dataflow;
          Alcotest.test_case "undefined label" `Quick test_label_resolution_error;
          Alcotest.test_case "duplicate label" `Quick test_duplicate_label_error;
          Alcotest.test_case "local interning" `Quick test_local_interning;
          Alcotest.test_case "no auto-return after goto" `Quick
            test_goto_no_auto_return;
          Alcotest.test_case "exit stmts" `Quick test_exit_stmts;
          Alcotest.test_case "tags" `Quick test_find_tagged;
          Alcotest.test_case "uses_local" `Quick test_uses_local;
          Alcotest.test_case "liveness" `Quick test_liveness;
        ] );
      ( "scene",
        [
          Alcotest.test_case "subtyping" `Quick test_subtyping;
          Alcotest.test_case "phantoms" `Quick test_phantom_resolve;
          Alcotest.test_case "CHA dispatch" `Quick test_dispatch;
          Alcotest.test_case "inherited resolution" `Quick
            test_resolve_concrete_inherited;
          Alcotest.test_case "duplicate class" `Quick test_duplicate_class;
          Alcotest.test_case "superclass chain" `Quick test_superclasses_chain;
          Alcotest.test_case "superclass cycle" `Quick test_superclass_cycle;
          Alcotest.test_case "insertion growing the class table" `Quick
            test_insert_growing_table;
        ] );
      ( "text",
        [
          Alcotest.test_case "round-trip LeakageApp" `Quick test_roundtrip_leakage;
          Alcotest.test_case "hand-written unit" `Quick test_parse_handwritten;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "comments and operators" `Quick
            test_parse_comments_and_ops;
          Alcotest.test_case "lexer identifier boundaries" `Quick
            test_lexer_identifiers;
          Alcotest.test_case "lexer and parser outputs are pinned" `Quick
            test_frontend_pinned;
          Alcotest.test_case "every truncation fails with a declared error"
            `Quick test_truncations_in_bounds;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_print_parse_roundtrip; prop_body_succs_in_range;
            prop_parser_total; prop_parser_mutation; prop_parser_in_bounds;
            prop_scene_insert_keeps_caches_exact; prop_cones_match_model;
            prop_liveness_matches_reference ] );
    ]
