(* Tests for call-graph construction (CHA and RTA) and the ICFG. *)

open Fd_ir
open Fd_callgraph
module B = Build
module T = Types

let mk cls name = Mkey.{ mk_class = cls; mk_name = name; mk_arity = 0 }

(* a small hierarchy with a virtual call whose receiver is only ever a
   Sub at runtime *)
let scene_with_dispatch () =
  let sc = Scene.create () in
  Scene.add_class sc (Jclass.mk T.object_class ~super:None);
  Scene.add_class sc
    (B.cls "t.Base"
       [ B.meth "m" (fun m -> let _ = B.this m in B.ret m) ]);
  Scene.add_class sc
    (B.cls "t.Sub" ~super:"t.Base"
       [ B.meth "m" (fun m -> let _ = B.this m in B.ret m) ]);
  Scene.add_class sc
    (B.cls "t.Other" ~super:"t.Base"
       [ B.meth "m" (fun m -> let _ = B.this m in B.ret m) ]);
  Scene.add_class sc
    (B.cls "t.Main"
       [
         B.meth "main" ~static:true (fun m ->
             let o = B.local m "o" ~ty:(T.Ref "t.Base") in
             B.newc m o "t.Sub" [];
             B.vcall m o "t.Base" "m" []);
       ]);
  sc

let target_names cg caller idx =
  Callgraph.callees cg caller idx
  |> List.map (fun k -> k.Mkey.mk_class)
  |> List.sort compare

let test_cha_dispatch () =
  let sc = scene_with_dispatch () in
  let cg = Callgraph.build sc ~entry:[ mk "t.Main" "main" ] () in
  (* CHA: all overrides in the cone, including the never-instantiated
     t.Other *)
  Alcotest.(check (list string))
    "CHA targets"
    [ "t.Base"; "t.Other"; "t.Sub" ]
    (target_names cg (mk "t.Main" "main") 2)

let test_rta_dispatch () =
  let sc = scene_with_dispatch () in
  let cg =
    Callgraph.build sc ~entry:[ mk "t.Main" "main" ] ~algorithm:Callgraph.Rta ()
  in
  (* RTA: only t.Sub is instantiated, so t.Other.m is not a target;
     t.Base.m is unreachable too since no Base instance exists *)
  Alcotest.(check (list string))
    "RTA targets" [ "t.Sub" ]
    (target_names cg (mk "t.Main" "main") 2)

let test_rta_subset_of_cha () =
  let sc = scene_with_dispatch () in
  let cha = Callgraph.build sc ~entry:[ mk "t.Main" "main" ] () in
  let rta =
    Callgraph.build sc ~entry:[ mk "t.Main" "main" ] ~algorithm:Callgraph.Rta ()
  in
  Alcotest.(check bool) "RTA edges <= CHA edges" true
    (Callgraph.edge_count rta <= Callgraph.edge_count cha)

let test_reachability () =
  let sc = scene_with_dispatch () in
  Scene.add_class sc
    (B.cls "t.Dead"
       [ B.meth "never" ~static:true (fun m -> B.ret m) ]);
  let cg = Callgraph.build sc ~entry:[ mk "t.Main" "main" ] () in
  Alcotest.(check bool) "main reachable" true
    (Callgraph.is_reachable cg (mk "t.Main" "main"));
  Alcotest.(check bool) "override reachable" true
    (Callgraph.is_reachable cg (mk "t.Sub" "m"));
  Alcotest.(check bool) "dead not reachable" false
    (Callgraph.is_reachable cg (mk "t.Dead" "never"))

let test_callers () =
  let sc = scene_with_dispatch () in
  let cg = Callgraph.build sc ~entry:[ mk "t.Main" "main" ] () in
  let callers = Callgraph.callers cg (mk "t.Sub" "m") in
  Alcotest.(check int) "one caller site" 1 (List.length callers);
  let caller, idx = List.hd callers in
  Alcotest.(check string) "caller is main" "t.Main" caller.Mkey.mk_class;
  Alcotest.(check int) "at the virtual call" 2 idx

let test_recursion () =
  let sc = Scene.create () in
  Scene.add_class sc (Jclass.mk T.object_class ~super:None);
  Scene.add_class sc
    (B.cls "t.R"
       [
         B.meth "f" ~static:true (fun m -> B.scall m "t.R" "g" []);
         B.meth "g" ~static:true (fun m -> B.scall m "t.R" "f" []);
       ]);
  let cg = Callgraph.build sc ~entry:[ mk "t.R" "f" ] () in
  Alcotest.(check bool) "mutual recursion terminates and reaches both" true
    (Callgraph.is_reachable cg (mk "t.R" "f")
    && Callgraph.is_reachable cg (mk "t.R" "g"))

let test_phantom_calls_have_no_targets () =
  let sc = Scene.create () in
  Scene.add_class sc (Jclass.mk T.object_class ~super:None);
  Scene.add_class sc
    (B.cls "t.M"
       [
         B.meth "main" ~static:true (fun m ->
             let x = B.local m "x" in
             B.scall m ~ret:x "android.framework.Thing" "get" []);
       ]);
  let cg = Callgraph.build sc ~entry:[ mk "t.M" "main" ] () in
  Alcotest.(check (list string)) "no targets into phantoms" []
    (target_names cg (mk "t.M" "main") 0)

(* --- ICFG --- *)

let test_icfg_navigation () =
  let sc = scene_with_dispatch () in
  let cg = Callgraph.build sc ~entry:[ mk "t.Main" "main" ] () in
  let g = Icfg.create cg in
  let entry = Icfg.start_node g (mk "t.Main" "main") in
  Alcotest.(check int) "start at 0" 0 entry.Icfg.n_idx;
  let succs = Icfg.succs g entry in
  Alcotest.(check int) "one successor" 1 (List.length succs);
  (* the call node is a call *)
  let call_node = Icfg.{ n_method = mk "t.Main" "main"; n_idx = 2 } in
  Alcotest.(check bool) "is_call" true (Icfg.is_call g call_node);
  Alcotest.(check int) "callees via icfg" 3
    (List.length (Icfg.callees g call_node));
  (* exits *)
  let exits = Icfg.exit_nodes g (mk "t.Main" "main") in
  Alcotest.(check int) "one exit" 1 (List.length exits);
  Alcotest.(check bool) "exit flagged" true (Icfg.is_exit g (List.hd exits));
  (* preds are the inverse of succs *)
  let back = Icfg.preds g (List.hd succs) in
  Alcotest.(check bool) "entry in preds of its succ" true
    (List.exists (Icfg.equal_node entry) back)

(* property: every callee of every reachable call site is itself
   reachable *)
let prop_callees_reachable =
  QCheck.Test.make ~name:"callees of reachable sites are reachable" ~count:50
    QCheck.(int_range 1 6)
    (fun n ->
      (* build a random static call chain of length n with a branch *)
      let sc = Scene.create () in
      Scene.add_class sc (Jclass.mk T.object_class ~super:None);
      for i = 0 to n do
        Scene.add_class sc
          (B.cls
             (Printf.sprintf "t.C%d" i)
             [
               B.meth "f" ~static:true (fun m ->
                   if i < n then
                     B.scall m (Printf.sprintf "t.C%d" (i + 1)) "f" []
                   else B.ret m);
             ])
      done;
      let cg = Callgraph.build sc ~entry:[ mk "t.C0" "f" ] () in
      List.for_all
        (fun caller ->
          match Callgraph.body_of cg caller with
          | exception Not_found -> true
          | body ->
              let ok = ref true in
              Body.iter body (fun s ->
                  List.iter
                    (fun tgt ->
                      if not (Callgraph.is_reachable cg tgt) then ok := false)
                    (Callgraph.callees cg caller s.Stmt.s_idx));
              !ok)
        (Callgraph.reachable_methods cg))

(* property: over random method graphs with cycles and a partly
   pre-filled memo, [Scc.condense] with a union [finish] gives every
   method the union of the contributions of everything it reaches (so
   the members of a cycle share one value); [finish] gets whole
   components and sees every successor outside its component already
   in the memo; and no method is visited twice or once memoised *)
module Iset = Set.Make (Int)

let prop_condense_union =
  QCheck.Test.make ~name:"condense: union over everything reached" ~count:300
    QCheck.(
      triple (int_range 1 9)
        (small_list (pair small_nat small_nat))
        (pair (small_list small_nat) (small_list small_nat)))
    (fun (n, edges, (prefilled, roots)) ->
      let key i = mk "t.G" (string_of_int i) in
      let id (k : Mkey.t) = int_of_string k.Mkey.mk_name in
      let edges = List.map (fun (a, b) -> (a mod n, b mod n)) edges in
      let succs i =
        List.filter_map (fun (a, b) -> if a = i then Some b else None) edges
      in
      let reach i =
        let rec go seen = function
          | [] -> seen
          | j :: rest ->
              if Iset.mem j seen then go seen rest
              else go (Iset.add j seen) (succs j @ rest)
        in
        go Iset.empty [ i ]
      in
      let memo = Mkey.Tbl.create 16 in
      List.iter
        (fun j -> Mkey.Tbl.replace memo (key (j mod n)) (reach (j mod n)))
        prefilled;
      let ok = ref true in
      let visited = Mkey.Tbl.copy memo in
      let visit k =
        if Mkey.Tbl.mem visited k then ok := false;
        Mkey.Tbl.replace visited k Iset.empty;
        (Iset.singleton (id k), List.map key (succs (id k)))
      in
      let finish members =
        let ids = List.map (fun (m, _, _) -> id m) members in
        List.iter
          (fun i ->
            if not (List.for_all (fun j -> Iset.mem j (reach i)) ids) then
              ok := false)
          ids;
        List.fold_left
          (fun acc (_, own, ss) ->
            List.fold_left
              (fun acc s ->
                match Mkey.Tbl.find_opt memo s with
                | Some v -> Iset.union acc v
                | None ->
                    if not (List.mem (id s) ids) then ok := false;
                    acc)
              (Iset.union acc own) ss)
          Iset.empty members
      in
      List.iter
        (fun r -> ignore (Scc.condense memo ~visit ~finish (key (r mod n))))
        (roots @ List.init n Fun.id);
      !ok
      && List.for_all
           (fun i -> Iset.equal (Mkey.Tbl.find memo (key i)) (reach i))
           (List.init n Fun.id))

let () =
  Alcotest.run "fd_callgraph"
    [
      ( "construction",
        [
          Alcotest.test_case "CHA dispatch" `Quick test_cha_dispatch;
          Alcotest.test_case "RTA dispatch" `Quick test_rta_dispatch;
          Alcotest.test_case "RTA subset of CHA" `Quick test_rta_subset_of_cha;
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "callers" `Quick test_callers;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "phantom targets" `Quick
            test_phantom_calls_have_no_targets;
        ] );
      ("icfg", [ Alcotest.test_case "navigation" `Quick test_icfg_navigation ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_callees_reachable;
          QCheck_alcotest.to_alcotest prop_condense_union;
        ] );
    ]
