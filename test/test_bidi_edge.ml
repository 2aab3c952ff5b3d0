(* Edge-case tests for the bidirectional solver: recursion carrying
   taint, taint through overridden methods on [this], multiple sources
   into one sink, aliasing through recursion, and solver termination
   on pathological shapes. *)

open Fd_ir
open Fd_core
module B = Build
module T = Types
module SS = Fd_frontend.Sourcesink

let test_defs =
  SS.create
    [
      SS.Return_source { cls = "t.Source"; mname = "secret"; cat = SS.Generic };
      SS.Sink { cls = "t.Sink"; mname = "leak"; cat = SS.Generic };
    ]

let analyze ?config ?(defs = test_defs) classes entries =
  Infoflow.analyze_plain ?config ~classes
    ~entries:
      (List.map
         (fun (c, m) ->
           Fd_callgraph.Mkey.{ mk_class = c; mk_name = m; mk_arity = 0 })
         entries)
    ~defs ()

let flow_pairs (r : Infoflow.result) =
  List.map
    (fun (fd : Bidi.finding) ->
      ( Option.value fd.Bidi.f_source.Taint.si_tag ~default:"?",
        Option.value fd.Bidi.f_sink_tag ~default:"?" ))
    r.Infoflow.r_findings
  |> List.sort_uniq compare

let check ?config ?defs name classes entries expected =
  Alcotest.(check (list (pair string string)))
    name
    (List.sort_uniq compare expected)
    (flow_pairs (analyze ?config ?defs classes entries))

let src m ?tag x = B.scall m ?tag ~ret:x "t.Source" "secret" []
let snk m ?tag x = B.scall m ?tag "t.Sink" "leak" [ B.v x ]

(* taint carried through direct recursion on the heap *)
let test_recursive_heap_taint () =
  let node = "t.RNode" in
  let fv = B.fld node "v" in
  let fn = B.fld ~ty:(T.Ref node) node "next" in
  let c =
    B.cls "t.Rec"
      [
        (* walk to the end of a chain and read the value *)
        B.meth "last" ~static:true ~params:[ T.Ref node ]
          ~ret:(T.Ref "java.lang.String") (fun m ->
            let p = B.param m 0 "p" in
            let nxt = B.local m "nxt" ~ty:(T.Ref node) in
            let r = B.local m "r" in
            B.load m nxt p fn;
            B.ifgoto m (B.v nxt) Stmt.Ceq B.nul "base";
            B.scall m ~ret:r "t.Rec" "last" [ B.v nxt ];
            B.retv m (B.v r);
            B.label m "base";
            B.load m r p fv;
            B.retv m (B.v r));
        B.meth "main" ~static:true (fun m ->
            let a = B.local m "a" and b = B.local m "b" and cl = B.local m "c" in
            let x = B.local m "x" and out = B.local m "out" in
            B.newobj m a node;
            B.newobj m b node;
            B.newobj m cl node;
            B.store m a fn (B.v b);
            B.store m b fn (B.v cl);
            src m ~tag:"s" x;
            B.store m cl fv (B.v x);
            B.scall m ~ret:out "t.Rec" "last" [ B.v a ];
            snk m ~tag:"k" out);
      ]
  in
  check "recursion over the heap" [ B.cls "t.RNode" ~fields:[ ("v", T.Ref "java.lang.String"); ("next", T.Ref node) ] []; c ]
    [ ("t.Rec", "main") ]
    [ ("s", "k") ]

(* taint staged in [this] across an override chain *)
let test_this_through_overrides () =
  let base = "t.OBase" in
  let sub = "t.OSub" in
  let f = B.fld base "stash" in
  let classes =
    [
      B.cls base
        ~fields:[ ("stash", T.Ref "java.lang.String") ]
        [
          B.meth "put" ~params:[ T.Ref "java.lang.String" ] (fun m ->
              let this = B.this m in
              let p = B.param m 0 "p" in
              B.store m this f (B.v p));
          B.meth "get" ~ret:(T.Ref "java.lang.String") (fun m ->
              let this = B.this m in
              let r = B.local m "r" in
              B.load m r this f;
              B.retv m (B.v r));
        ];
      B.cls sub ~super:base
        [
          (* the override decorates but still stages through super's
             field via a super call *)
          B.meth "put" ~params:[ T.Ref "java.lang.String" ] (fun m ->
              let this = B.this m in
              let p = B.param m 0 "p" in
              let d = B.local m "d" in
              B.binop m d "+" (B.s ">") (B.v p);
              B.spcall m this base "put" [ B.v d ]);
        ];
      B.cls "t.OMain"
        [
          B.meth "main" ~static:true (fun m ->
              let o = B.local m "o" ~ty:(T.Ref base) in
              let x = B.local m "x" and out = B.local m "out" in
              B.newc m o sub [];
              src m ~tag:"s" x;
              B.vcall m o base "put" [ B.v x ];
              B.vcall m ~ret:out o base "get" [];
              snk m ~tag:"k" out);
        ];
    ]
  in
  check "this-field through override + super call" classes
    [ ("t.OMain", "main") ]
    [ ("s", "k") ]

(* two distinct sources reaching the same sink produce two findings *)
let test_two_sources_one_sink () =
  let c =
    B.cls "t.Two"
      [
        B.meth "main" ~static:true (fun m ->
            let a = B.local m "a" and b = B.local m "b" and j = B.local m "j" in
            src m ~tag:"s1" a;
            src m ~tag:"s2" b;
            B.binop m j "+" (B.v a) (B.v b);
            snk m ~tag:"k" j);
      ]
  in
  check "two sources, one sink" [ c ] [ ("t.Two", "main") ]
    [ ("s1", "k"); ("s2", "k") ]

(* mutually recursive methods exchanging the taint *)
let test_mutual_recursion () =
  let c =
    B.cls "t.Mut"
      [
        B.meth "ping" ~static:true ~params:[ T.Ref "java.lang.String"; T.Int ]
          ~ret:(T.Ref "java.lang.String") (fun m ->
            let p = B.param m 0 "p" in
            let n = B.param m 1 "n" in
            let r = B.local m "r" in
            B.ifgoto m (B.v n) Stmt.Cle (B.i 0) "base";
            let n' = B.local m "n2" ~ty:T.Int in
            B.binop m n' "-" (B.v n) (B.i 1);
            B.scall m ~ret:r "t.Mut" "pong" [ B.v p; B.v n' ];
            B.retv m (B.v r);
            B.label m "base";
            B.retv m (B.v p));
        B.meth "pong" ~static:true ~params:[ T.Ref "java.lang.String"; T.Int ]
          ~ret:(T.Ref "java.lang.String") (fun m ->
            let p = B.param m 0 "p" in
            let n = B.param m 1 "n" in
            let r = B.local m "r" in
            B.scall m ~ret:r "t.Mut" "ping" [ B.v p; B.v n ];
            B.retv m (B.v r));
        B.meth "main" ~static:true (fun m ->
            let x = B.local m "x" and out = B.local m "out" in
            src m ~tag:"s" x;
            B.scall m ~ret:out "t.Mut" "ping" [ B.v x; B.i 5 ];
            snk m ~tag:"k" out);
      ]
  in
  check "mutual recursion" [ c ] [ ("t.Mut", "main") ] [ ("s", "k") ]

(* the alias of an alias: x -> y -> z chains through two heap cells *)
let test_alias_of_alias () =
  let node = "t.ANode" in
  let f = B.fld node "f" in
  let c =
    B.cls "t.AA"
      [
        B.meth "main" ~static:true (fun m ->
            let o = B.local m "o" in
            let p = B.local m "p" and q = B.local m "q" in
            let x = B.local m "x" and out = B.local m "out" in
            B.newobj m o node;
            B.move m p o;
            B.move m q p;
            src m ~tag:"s" x;
            B.store m o f (B.v x);
            B.load m out q f;
            snk m ~tag:"k" out);
      ]
  in
  check "alias chains" [ B.cls node ~fields:[ ("f", T.Ref "java.lang.Object") ] []; c ]
    [ ("t.AA", "main") ]
    [ ("s", "k") ]

(* a sink receiving an untainted sibling while the tainted value flows
   elsewhere: no cross-contamination between findings *)
let test_no_cross_contamination () =
  let c =
    B.cls "t.NC"
      [
        B.meth "main" ~static:true (fun m ->
            let a = B.local m "a" and b = B.local m "b" in
            src m ~tag:"s" a;
            B.const m b (B.s "benign");
            snk m ~tag:"k-clean" b;
            snk m ~tag:"k-dirty" a);
      ]
  in
  check "no cross contamination" [ c ] [ ("t.NC", "main") ]
    [ ("s", "k-dirty") ]

(* a long linear pipeline: solver terminates quickly and keeps the
   taint end to end *)
let test_long_pipeline () =
  let n = 40 in
  let meths =
    List.init n (fun i ->
        B.meth
          (Printf.sprintf "step%d" i)
          ~static:true
          ~params:[ T.Ref "java.lang.String" ]
          ~ret:(T.Ref "java.lang.String")
          (fun m ->
            let p = B.param m 0 "p" in
            if i + 1 < n then begin
              let r = B.local m "r" in
              B.scall m ~ret:r "t.Pipe" (Printf.sprintf "step%d" (i + 1))
                [ B.v p ];
              B.retv m (B.v r)
            end
            else B.retv m (B.v p)))
  in
  let c =
    B.cls "t.Pipe"
      (meths
      @ [
          B.meth "main" ~static:true (fun m ->
              let x = B.local m "x" and out = B.local m "out" in
              src m ~tag:"s" x;
              B.scall m ~ret:out "t.Pipe" "step0" [ B.v x ];
              snk m ~tag:"k" out);
        ])
  in
  let r = analyze [ c ] [ ("t.Pipe", "main") ] in
  Alcotest.(check (list (pair string string))) "taint survives 40 hops"
    [ ("s", "k") ]
    (flow_pairs r);
  Alcotest.(check bool) "bounded work" true
    (r.Infoflow.r_stats.Infoflow.st_propagations < 100_000)

(* ---- static-field taints enter only callees whose call tree
   touches the field: each case below reaches the read of [St#s] only
   through a callee that does not mention it itself ---- *)

let st_s = B.fld "t.St" "s"
let obj = T.Ref "java.lang.Object"

(* [main] stores a secret in [St#s] and calls [entry] *)
let static_main ?(args = []) entry =
  B.meth "main" ~static:true (fun m ->
      let x = B.local m "x" in
      src m ~tag:"s" x;
      B.storestatic m st_s (B.v x);
      B.scall m "t.S" entry args)

(* reads [St#s] into a sink *)
let read_leak m =
  let v = B.local m "v" ~ty:obj in
  B.loadstatic m v st_s;
  snk m ~tag:"k" v

let check_static ?config name classes =
  check ?config name
    (B.cls "t.St" ~fields:[ ("s", obj) ] [] :: classes)
    [ ("t.S", "main") ]
    [ ("s", "k") ]

let test_static_two_calls_below () =
  check_static "read two calls below the callee"
    [
      B.cls "t.S"
        [
          static_main "a";
          B.meth "a" ~static:true (fun m -> B.scall m "t.S" "b" []);
          B.meth "b" ~static:true (fun m -> B.scall m "t.S" "c" []);
          B.meth "c" ~static:true read_leak;
        ];
    ]

let test_static_mutual_recursion () =
  let ping_pong name other ~reads =
    B.meth name ~static:true ~params:[ T.Int ] (fun m ->
        let n = B.param m 0 "n" in
        B.ifgoto m (B.v n) Stmt.Cle (B.i 0) "base";
        let n' = B.local m "n2" ~ty:T.Int in
        B.binop m n' "-" (B.v n) (B.i 1);
        B.scall m "t.S" other [ B.v n' ];
        if reads then read_leak m;
        B.label m "base";
        B.ret m)
  in
  check_static "read inside a mutually recursive pair"
    [
      B.cls "t.S"
        [
          static_main ~args:[ B.i 3 ] "ping";
          ping_pong "ping" "pong" ~reads:false;
          ping_pong "pong" "ping" ~reads:true;
        ];
    ]

let test_static_clinit_edge () =
  check_static
    ~config:
      {
        Config.default with
        Config.precision = { Config.no_precision with Config.clinit = true };
      }
    "read reached through a first-use <clinit> edge"
    [
      B.cls "t.S"
        [
          static_main "helper";
          B.meth "helper" ~static:true (fun m ->
              let o = B.local m "o" ~ty:(T.Ref "t.Lazy") in
              B.newobj m o "t.Lazy");
        ];
      B.cls "t.Lazy" [ B.meth "<clinit>" ~static:true read_leak ];
    ]

let test_static_reflective_edge () =
  check_static
    ~config:
      {
        Config.default with
        Config.precision =
          { Config.no_precision with Config.reflection = true };
      }
    "read reached through a constant-string reflective edge"
    [
      B.cls "t.S"
        [
          static_main "helper";
          B.meth "helper" ~static:true (fun m ->
              let o = B.local m "o" ~ty:(T.Ref "t.Target") in
              let mth =
                B.local m "mth" ~ty:(T.Ref "java.lang.reflect.Method")
              in
              B.newobj m o "t.Target";
              B.vcall m ~ret:mth o "java.lang.Class" "getMethod"
                [ B.s "show" ];
              B.vcall m mth "java.lang.reflect.Method" "invoke" [ B.v o ]);
        ];
      B.cls "t.Target" [ B.meth "show" read_leak ];
    ]

(* the backward search from the heap write [o.f = x] in [setup] finds
   the static alias [St#s.f], born inactive with its activation in
   [setup]; it crosses [idle], which never mentions [St#s], before
   [show] reads it *)
let test_static_alias_activated_in_callee () =
  let node = "t.SNode" in
  let f = B.fld node "f" in
  let st_n = B.fld ~ty:(T.Ref node) "t.St" "n" in
  check "inactive static alias activated in a callee"
    [
      B.cls node ~fields:[ ("f", obj) ] [];
      B.cls "t.St" ~fields:[ ("n", T.Ref node) ] [];
      B.cls "t.S"
        [
          B.meth "main" ~static:true (fun m ->
              B.scall m "t.S" "setup" [];
              B.scall m "t.S" "idle" [];
              B.scall m "t.S" "show" []);
          B.meth "setup" ~static:true (fun m ->
              let o = B.local m "o" ~ty:(T.Ref node) in
              let x = B.local m "x" in
              B.newobj m o node;
              B.storestatic m st_n (B.v o);
              src m ~tag:"s" x;
              B.store m o f (B.v x));
          B.meth "idle" ~static:true (fun m -> B.nop m);
          B.meth "show" ~static:true (fun m ->
              let r = B.local m "r" ~ty:(T.Ref node) in
              let v = B.local m "v" ~ty:obj in
              B.loadstatic m r st_n;
              B.load m v r f;
              snk m ~tag:"k" v);
        ];
    ]
    [ ("t.S", "main") ]
    [ ("s", "k") ]

(* ---- the zero fact enters only callees whose call tree generates a
   taint, and inside a method it visits only the statements where it
   does work: each case below generates its taint one call below a
   method that has no source itself, at a statement after the
   callee's first ---- *)

let with_precision f =
  { Config.default with Config.precision = f Config.no_precision }

let test_zero_param_source () =
  let defs =
    SS.create
      [
        SS.Param_source
          { cls = "t.Cb"; mname = "onData"; param = 0; cat = SS.Generic };
        SS.Sink { cls = "t.Sink"; mname = "leak"; cat = SS.Generic };
      ]
  in
  check ~defs "callback parameter source"
    [
      B.cls "t.Cb"
        [
          B.meth "onData" ~params:[ obj ] (fun m ->
              ignore (B.this m);
              let p = B.param m 0 ~tag:"s" "p" in
              snk m ~tag:"k" p);
        ];
      B.cls "t.S"
        [
          B.meth "main" ~static:true (fun m -> B.scall m "t.S" "helper" []);
          B.meth "helper" ~static:true (fun m ->
              let c = B.local m "c" ~ty:(T.Ref "t.Cb") in
              B.newobj m c "t.Cb";
              B.vcall m c "t.Cb" "onData" [ B.s "data" ]);
        ];
    ]
    [ ("t.S", "main") ]
    [ ("s", "k") ]

let test_zero_password_field () =
  match Fd_droidbench.Suite.find "PrivateDataLeak1" with
  | None -> Alcotest.fail "PrivateDataLeak1 missing from the suite"
  | Some a ->
      Alcotest.(check (list (pair string string)))
        "password findViewById"
        [ ("src-pwd", "sink-sms") ]
        (flow_pairs (Infoflow.analyze_apk a.Fd_droidbench.Bench_app.app_apk))

let test_zero_clinit_edge () =
  check
    ~config:(with_precision (fun p -> { p with Config.clinit = true }))
    "source in a <clinit> reached through a first-use edge"
    [
      B.cls "t.St" ~fields:[ ("s", obj) ] [];
      B.cls "t.Lazy"
        [
          B.meth "<clinit>" ~static:true (fun m ->
              let x = B.local m "x" in
              src m ~tag:"s" x;
              B.storestatic m st_s (B.v x));
        ];
      B.cls "t.S"
        [
          B.meth "main" ~static:true (fun m ->
              B.scall m "t.S" "helper" [];
              read_leak m);
          B.meth "helper" ~static:true (fun m ->
              let o = B.local m "o" ~ty:(T.Ref "t.Lazy") in
              B.nop m;
              B.newobj m o "t.Lazy");
        ];
    ]
    [ ("t.S", "main") ]
    [ ("s", "k") ]

let test_zero_reflective_edge () =
  check
    ~config:(with_precision (fun p -> { p with Config.reflection = true }))
    "source reached through a constant-string reflective edge"
    [
      B.cls "t.S"
        [
          B.meth "main" ~static:true (fun m -> B.scall m "t.S" "helper" []);
          B.meth "helper" ~static:true (fun m ->
              let o = B.local m "o" ~ty:(T.Ref "t.Target") in
              let mth =
                B.local m "mth" ~ty:(T.Ref "java.lang.reflect.Method")
              in
              B.newobj m o "t.Target";
              B.vcall m ~ret:mth o "java.lang.Class" "getMethod"
                [ B.s "show" ];
              B.vcall m mth "java.lang.reflect.Method" "invoke" [ B.v o ]);
        ];
      B.cls "t.Target"
        [
          B.meth "show" (fun m ->
              let x = B.local m "x" in
              ignore (B.this m);
              src m ~tag:"s" x;
              snk m ~tag:"k" x);
        ];
    ]
    [ ("t.S", "main") ]
    [ ("s", "k") ]

let test_zero_recursive_cycle () =
  check "source inside a recursive cycle"
    [
      B.cls "t.S"
        [
          B.meth "main" ~static:true (fun m ->
              B.scall m "t.S" "ping" [ B.i 3 ]);
          B.meth "ping" ~static:true ~params:[ T.Int ] (fun m ->
              let n = B.param m 0 "n" ~ty:T.Int in
              let n' = B.local m "n2" ~ty:T.Int in
              B.ifgoto m (B.v n) Stmt.Cle (B.i 0) "base";
              B.binop m n' "-" (B.v n) (B.i 1);
              B.scall m "t.S" "pong" [ B.v n' ];
              B.label m "base";
              B.ret m);
          B.meth "pong" ~static:true ~params:[ T.Int ] (fun m ->
              let n = B.param m 0 "n" ~ty:T.Int in
              let x = B.local m "x" in
              src m ~tag:"s" x;
              snk m ~tag:"k" x;
              B.scall m "t.S" "ping" [ B.v n ]);
        ];
    ]
    [ ("t.S", "main") ]
    [ ("s", "k") ]

(* Listing 2's shape under the naive handover: the alias [out.f] of the
   heap write in the source-free [set] is searched in [set]'s zero
   context, and reaches [main] only through that context's callers *)
let test_zero_naive_handover () =
  let ff = B.fld "t.Data" "f" in
  check
    ~config:{ Config.default with Config.context_injection = false }
    "naive handover"
    [
      B.cls "t.Data" ~fields:[ ("f", obj) ] [];
      B.cls "t.S"
        [
          B.meth "set" ~static:true ~params:[ obj; T.Ref "t.Data" ]
            (fun m ->
              let in_ = B.param m 0 "in" in
              let out = B.param m 1 "out" ~ty:(T.Ref "t.Data") in
              let x = B.local m "x" ~ty:(T.Ref "t.Data") in
              B.move m x out;
              B.store m x ff (B.v in_));
          B.meth "main" ~static:true (fun m ->
              let p = B.local m "p" ~ty:(T.Ref "t.Data") in
              let s = B.local m "s" and v = B.local m "v" in
              B.newobj m p "t.Data";
              src m ~tag:"s" s;
              B.scall m "t.S" "set" [ B.v s; B.v p ];
              B.load m v p ff;
              snk m ~tag:"k" v);
        ];
    ]
    [ ("t.S", "main") ]
    [ ("s", "k") ]

(* a helper with no source in its call tree, called from a method that
   generates one, gets no path edge at all: the profiler, which
   accounts every path edge to its method, never sees it *)
let test_zero_skips_source_free_helper () =
  let config = { Config.default with Config.profile = true } in
  Fd_obs.Profile.reset ();
  check ~config "leak around a source-free helper"
    [
      B.cls "t.S"
        [
          B.meth "main" ~static:true (fun m ->
              let x = B.local m "x" in
              src m ~tag:"s" x;
              B.scall m "t.S" "helper" [];
              snk m ~tag:"k" x);
          B.meth "helper" ~static:true (fun m -> B.nop m);
        ];
    ]
    [ ("t.S", "main") ]
    [ ("s", "k") ];
  let profiled =
    List.map
      (fun (e : Fd_obs.Profile.entry) -> e.Fd_obs.Profile.e_name)
      (Fd_obs.Profile.entries ())
  in
  Fd_obs.Profile.reset ();
  Alcotest.(check bool) "main profiled" true
    (List.mem "t.S.main/0" profiled);
  Alcotest.(check bool) "helper has no path edge" false
    (List.mem "t.S.helper/0" profiled)

(* ---- the dead-local rule: an active taint rooted at a local that is
   dead where it lands is dropped, except a field path of [this] or a
   parameter; the unpruned engine ([Bidi.fresh ~prune_dead:false])
   solves the same program for comparison ---- *)

let unpruned (r : Infoflow.result) =
  let e = Bidi.fresh ~prune_dead:false r.Infoflow.r_engine in
  Bidi.run e ~entries:r.Infoflow.r_entries;
  e

let render_findings fs =
  List.map
    (fun (fd : Bidi.finding) ->
      Printf.sprintf "%s -> %s"
        (Fd_callgraph.Icfg.string_of_node fd.Bidi.f_source.Taint.si_node)
        (Fd_callgraph.Icfg.string_of_node fd.Bidi.f_sink_node))
    fs

(* the taints at [cls.name]'s exits, as (base local, field count,
   active), each once *)
let exit_taints (r : Infoflow.result) engine cls name arity =
  let mk = Fd_callgraph.Mkey.{ mk_class = cls; mk_name = name; mk_arity = arity } in
  let body = Fd_callgraph.Callgraph.body_of r.Infoflow.r_icfg.Fd_callgraph.Icfg.cg mk in
  List.sort_uniq compare
  @@ List.concat_map
    (fun i ->
      List.filter_map
        (fun (t : Taint.t) ->
          match t.Taint.ap.Access_path.base with
          | Access_path.Bloc x ->
              Some (x.Stmt.l_name, Access_path.length t.Taint.ap, t.Taint.active)
          | Access_path.Bstatic _ -> None)
        (Bidi.results_at engine Fd_callgraph.Icfg.{ n_method = mk; n_idx = i }))
    (Body.exit_stmts body)

let data = "t.Data"
let data_f = B.fld data "f"

(* [put] writes its parameter's field and never reads the parameter
   again; the caller reads the field back *)
let put_program () =
  [
    B.cls data ~fields:[ ("f", obj) ] [];
    B.cls "t.S"
      [
        B.meth "put" ~static:true ~params:[ T.Ref data; obj ] (fun m ->
            let p = B.param m 0 "p" ~ty:(T.Ref data) in
            let v = B.param m 1 "v" in
            B.store m p data_f (B.v v);
            B.nop m);
        B.meth "main" ~static:true (fun m ->
            let a = B.local m "a" ~ty:(T.Ref data) in
            let x = B.local m "x" and y = B.local m "y" in
            B.newobj m a data;
            src m ~tag:"s" x;
            B.scall m "t.S" "put" [ B.v a; B.v x ];
            B.load m y a data_f;
            snk m ~tag:"k" y);
      ];
  ]

let test_dead_param_field_path () =
  let r = analyze (put_program ()) [ ("t.S", "main") ] in
  Alcotest.(check (list (pair string string))) "a.f leaks" [ ("s", "k") ]
    (flow_pairs r);
  Alcotest.(check (list (triple string int bool)))
    "p.f reaches put's exit" [ ("p", 1, true) ]
    (exit_taints r r.Infoflow.r_engine "t.S" "put" 2)

let test_dead_bare_param () =
  let r = analyze (put_program ()) [ ("t.S", "main") ] in
  let plain = unpruned r in
  Alcotest.(check (list (triple string int bool)))
    "unpruned: v also reaches put's exit"
    [ ("p", 1, true); ("v", 0, true) ]
    (exit_taints r plain "t.S" "put" 2);
  Alcotest.(check (list (triple string int bool)))
    "pruned: the bare parameter v does not" [ ("p", 1, true) ]
    (exit_taints r r.Infoflow.r_engine "t.S" "put" 2);
  Alcotest.(check (list string)) "same findings"
    (render_findings (Bidi.findings plain))
    (render_findings (Bidi.findings r.Infoflow.r_engine))

(* Listing 3 with the heap write in a callee that may skip it: the
   alias search from [d.f] finds [q.f], on a local [set] never reads
   again.  On the skipping path [q.f] reaches the exit inactive, where
   [return_flow] records its activation site; once it crosses the
   write it is active and dropped.  The caller's first sink reads
   [p2.f] before the write (no leak), the second after it (the leak). *)
let test_dead_inactive_alias () =
  let classes =
    [
      B.cls data ~fields:[ ("f", obj) ] [];
      B.cls "t.S"
        [
          B.meth "set" ~static:true ~params:[ T.Ref data; obj; T.Int ]
            (fun m ->
              let d = B.param m 0 "d" ~ty:(T.Ref data) in
              let s = B.param m 1 "s" in
              let n = B.param m 2 "n" ~ty:T.Int in
              let q = B.local m "q" ~ty:(T.Ref data) in
              B.move m q d;
              B.ifgoto m (B.v n) Stmt.Cle (B.i 0) "end";
              B.store m d data_f (B.v s);
              B.label m "end";
              B.ret m);
          B.meth "main" ~static:true (fun m ->
              let p = B.local m "p" ~ty:(T.Ref data) in
              let p2 = B.local m "p2" ~ty:(T.Ref data) in
              let s = B.local m "s" in
              let v1 = B.local m "v1" and v2 = B.local m "v2" in
              B.newobj m p data;
              B.move m p2 p;
              B.load m v1 p2 data_f;
              snk m ~tag:"k2" v1;
              src m ~tag:"s" s;
              B.scall m "t.S" "set" [ B.v p; B.v s; B.i 1 ];
              B.load m v2 p2 data_f;
              snk m ~tag:"k4" v2);
        ];
    ]
  in
  let r = analyze classes [ ("t.S", "main") ] in
  let plain = unpruned r in
  Alcotest.(check (list (pair string string))) "only the second sink leaks"
    [ ("s", "k4") ] (flow_pairs r);
  Alcotest.(check (list string)) "same findings"
    (render_findings (Bidi.findings plain))
    (render_findings (Bidi.findings r.Infoflow.r_engine));
  let on_q engine =
    List.filter (fun (x, _, _) -> x = "q") (exit_taints r engine "t.S" "set" 3)
  in
  Alcotest.(check (list (triple string int bool)))
    "unpruned: q.f at the exit, inactive and active"
    [ ("q", 1, false); ("q", 1, true) ]
    (on_q plain);
  Alcotest.(check (list (triple string int bool)))
    "pruned: only the inactive q.f" [ ("q", 1, false) ]
    (on_q r.Infoflow.r_engine)

(* ---------------- context growth on a heap-staged chain ---------------- *)

(* a depth-[depth] static chain of the layer benchmark's shape: each
   step stores its argument in a heap cell and reads it back, calls the
   next step, then stages the result through a second field.  Every
   store spawns an alias search whose inactive aliases activate at the
   store; an activated taint that kept its activation statement would
   differ per store, so each step would be entered once per upstream
   write and the solve would grow quadratically with depth *)
let heap_chain_apk ~depth =
  let step i =
    let next =
      if i = depth - 1 then ""
      else
        Printf.sprintf
          "    t = staticinvoke h.Chain#step%d(t);\n\
          \    b.h.Box#aux = t;\n\
          \    t = b.h.Box#aux;\n"
          (i + 1)
    in
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : h.Box;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new h.Box;\n\
      \    specialinvoke b.h.Box#<init>();\n\
      \    b.h.Box#val = p;\n\
      \    t = b.h.Box#val;\n\
       %s\
      \    return t;\n\
      \  }\n"
      i next
  in
  let box =
    "class h.Box {\n\
    \  field val : java.lang.String;\n\
    \  field aux : java.lang.String;\n\
    \  method void <init>() {\n\
    \    this := @this: h.Box;\n\
    \    return;\n\
    \  }\n\
     }\n"
  in
  let activity =
    "class h.App extends android.app.Activity {\n\
    \  method void onCreate(android.os.Bundle) {\n\
    \    local saved : java.lang.Object;\n\
    \    local tm : android.telephony.TelephonyManager;\n\
    \    local imei : java.lang.Object;\n\
    \    local out : java.lang.Object;\n\
    \    local sms : android.telephony.SmsManager;\n\
    \    this := @this: h.App;\n\
    \    saved := @parameter0;\n\
    \    tm = new android.telephony.TelephonyManager;\n\
    \    imei = virtualinvoke \
     tm.android.telephony.TelephonyManager#getDeviceId() @\"src-imei\";\n\
    \    out = staticinvoke h.Chain#step0(imei);\n\
    \    sms = staticinvoke android.telephony.SmsManager#getDefault();\n\
    \    virtualinvoke \
     sms.android.telephony.SmsManager#sendTextMessage(\"+1\", null, out, \
     null, null) @\"sink-sms\";\n\
    \    return;\n\
    \  }\n\
     }\n"
  in
  Fd_frontend.Apk.make_text "HeapChain"
    ~manifest:
      (Fd_frontend.Apk.simple_manifest ~package:"h"
         [ (Fd_frontend.Framework.Activity, "h.App", []) ])
    ~layouts:[]
    [ box;
      "class h.Chain {\n" ^ String.concat "" (List.init depth step) ^ "}\n";
      activity ]

(* a chain's path edges and, per step method, the forward taints at
   its first statement: one per entry context besides the zero fact *)
let chain_solve ~depth =
  let r = Infoflow.analyze_apk (heap_chain_apk ~depth) in
  Alcotest.(check int)
    (Printf.sprintf "depth %d: the leak is found" depth)
    1 (List.length r.Infoflow.r_findings);
  let entry_taints i =
    List.length
      (Bidi.results_at r.Infoflow.r_engine
         Fd_callgraph.(
           Icfg.
             {
               n_method =
                 Mkey.
                   {
                     mk_class = "h.Chain";
                     mk_name = Printf.sprintf "step%d" i;
                     mk_arity = 1;
                   };
               n_idx = 0;
             }))
  in
  (Bidi.propagation_count r.Infoflow.r_engine, List.init depth entry_taints)

(* doubling the depth at most doubles the work, plus a margin for the
   fixed cost of the activity and the dummy main, and no step is
   entered in more than a handful of contexts *)
let test_chain_contexts_linear () =
  let e20, _ = chain_solve ~depth:20 in
  let e40, entries = chain_solve ~depth:40 in
  if float_of_int e40 > 2.2 *. float_of_int e20 then
    Alcotest.failf "path edges grow faster than depth: %d at 20, %d at 40"
      e20 e40;
  List.iteri
    (fun i n ->
      if n > 2 then
        Alcotest.failf "step%d is entered with %d taints (at most 2)" i n)
    entries

let () =
  Alcotest.run "fd_bidi_edge"
    [
      ( "edge-cases",
        [
          Alcotest.test_case "recursive heap taint" `Quick
            test_recursive_heap_taint;
          Alcotest.test_case "override + super" `Quick test_this_through_overrides;
          Alcotest.test_case "two sources" `Quick test_two_sources_one_sink;
          Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
          Alcotest.test_case "alias of alias" `Quick test_alias_of_alias;
          Alcotest.test_case "no cross contamination" `Quick
            test_no_cross_contamination;
          Alcotest.test_case "long pipeline" `Quick test_long_pipeline;
        ] );
      ( "static-field gate",
        [
          Alcotest.test_case "two calls below" `Quick
            test_static_two_calls_below;
          Alcotest.test_case "mutual recursion" `Quick
            test_static_mutual_recursion;
          Alcotest.test_case "first-use <clinit> edge" `Quick
            test_static_clinit_edge;
          Alcotest.test_case "reflective edge" `Quick
            test_static_reflective_edge;
          Alcotest.test_case "alias activated in a callee" `Quick
            test_static_alias_activated_in_callee;
        ] );
      ( "zero-fact gate",
        [
          Alcotest.test_case "callback parameter source" `Quick
            test_zero_param_source;
          Alcotest.test_case "password findViewById" `Quick
            test_zero_password_field;
          Alcotest.test_case "first-use <clinit> edge" `Quick
            test_zero_clinit_edge;
          Alcotest.test_case "reflective edge" `Quick
            test_zero_reflective_edge;
          Alcotest.test_case "source in a recursive cycle" `Quick
            test_zero_recursive_cycle;
          Alcotest.test_case "naive handover" `Quick
            test_zero_naive_handover;
          Alcotest.test_case "source-free helper skipped" `Quick
            test_zero_skips_source_free_helper;
        ] );
      ( "dead-local rule",
        [
          Alcotest.test_case "parameter field path kept" `Quick
            test_dead_param_field_path;
          Alcotest.test_case "bare parameter dropped at the exit" `Quick
            test_dead_bare_param;
          Alcotest.test_case "inactive alias on a dead local kept" `Quick
            test_dead_inactive_alias;
        ] );
      ( "activation",
        [
          Alcotest.test_case "chain contexts grow linearly" `Quick
            test_chain_contexts_linear;
        ] );
    ]
