(* Demonstrations of the paper's figures and listings on the real
   engine: Figure 2 (aliasing handover), Listing 2 (context injection
   vs the naive handover of Figure 3), Listing 3 (activation
   statements vs Andromeda-style flow-insensitivity). *)
open Fd_ir
open Fd_core
module B = Build
module T = Types
module SS = Fd_frontend.Sourcesink

let defs =
  SS.create
    [
      SS.Return_source { cls = "t.Source"; mname = "secret"; cat = SS.Generic };
      SS.Sink { cls = "t.Sink"; mname = "leak"; cat = SS.Generic };
    ]

let src m ?tag x = B.scall m ?tag ~ret:x "t.Source" "secret" []
let snk m ?tag x = B.scall m ?tag "t.Sink" "leak" [ B.v x ]

let listing2 () =
  let ff = B.fld "t.Data" "f" in
  B.cls "t.L2"
    [
      B.meth "taintIt" ~static:true
        ~params:[ T.Ref "java.lang.String"; T.Ref "t.Data" ] (fun m ->
          let in_ = B.param m 0 "in" in
          let out = B.param m 1 "out" in
          let x = B.local m "x" in
          let v = B.local m "v" in
          B.move m x out;
          B.store m x ff (B.v in_);
          B.load m v out ff;
          snk m ~tag:"line11: sink(out.f) inside taintIt" v);
      B.meth "main" ~static:true (fun m ->
          let p = B.local m "p" and p2 = B.local m "p2" in
          let s = B.local m "s" and pub = B.local m "pub" in
          let v1 = B.local m "v1" and v2 = B.local m "v2" in
          B.newc m p "t.Data" [];
          B.newc m p2 "t.Data" [];
          src m ~tag:"line3: source()" s;
          B.scall m "t.L2" "taintIt" [ B.v s; B.v p ];
          B.load m v1 p ff;
          snk m ~tag:"line4: sink(p.f)" v1;
          B.const m pub (B.s "public");
          B.scall m "t.L2" "taintIt" [ B.v pub; B.v p2 ];
          B.load m v2 p2 ff;
          snk m ~tag:"line6: sink(p2.f) [SAFE]" v2);
    ]

let listing3 () =
  let ff = B.fld "t.Data" "f" in
  B.cls "t.L3"
    [
      B.meth "main" ~static:true (fun m ->
          let p = B.local m "p" and p2 = B.local m "p2" in
          let s = B.local m "s" in
          let v1 = B.local m "v1" and v2 = B.local m "v2" in
          B.newc m p "t.Data" [];
          B.move m p2 p;
          B.load m v1 p2 ff;
          snk m ~tag:"line2: sink(p2.f) [SAFE: before taint]" v1;
          src m ~tag:"line3: source()" s;
          B.store m p ff (B.v s);
          B.load m v2 p2 ff;
          snk m ~tag:"line4: sink(p2.f)" v2);
    ]

let figure2 () =
  let fg = B.fld "t.A2" "g" in
  let ffld = B.fld "t.Obj" "f" in
  B.cls "t.F2"
    [
      B.meth "foo" ~static:true ~params:[ T.Ref "t.A2" ] (fun m ->
          let z = B.param m 0 "z" in
          let x = B.local m "x" in
          let w = B.local m "w" in
          B.load m x z fg;
          src m ~tag:"w = source() in foo" w;
          B.store m x ffld (B.v w));
      B.meth "main" ~static:true (fun m ->
          let a = B.local m "a" and b = B.local m "b" in
          let o = B.local m "o" and v = B.local m "v" in
          B.newc m a "t.A2" [];
          B.newc m o "t.Obj" [];
          B.store m a fg (B.v o);
          B.load m b a fg;
          B.scall m "t.F2" "foo" [ B.v a ];
          B.load m v b ffld;
          snk m ~tag:"sink(b.f)" v);
    ]

let analyze ?(config = Config.default) cls entry =
  Infoflow.analyze_plain ~config ~classes:[ cls ]
    ~entries:[ Fd_callgraph.Mkey.{ mk_class = entry; mk_name = "main"; mk_arity = 0 } ]
    ~defs ()

let show title result =
  Printf.printf "%s\n" title;
  if result.Infoflow.r_findings = [] then Printf.printf "  (no leaks reported)\n"
  else
    List.iter
      (fun (fd : Bidi.finding) ->
        Printf.printf "  leak: %s  -->  %s\n"
          (Option.value fd.Bidi.f_source.Taint.si_tag ~default:"?")
          (Option.value fd.Bidi.f_sink_tag ~default:"?"))
      result.Infoflow.r_findings;
  print_newline ()

let run_figure2 () =
  show "Figure 2: taint analysis under realistic aliasing"
    (analyze (figure2 ()) "t.F2")

let run_listing2 () =
  show "Listing 2 with context injection (the paper's algorithm)"
    (analyze (listing2 ()) "t.L2");
  show "Listing 2 with the NAIVE handover of Figure 3 (ablation)"
    (analyze
       ~config:{ Config.default with Config.context_injection = false }
       (listing2 ()) "t.L2")

let run_listing3 () =
  show "Listing 3 with activation statements (flow-sensitive aliases)"
    (analyze (listing3 ()) "t.L3");
  show "Listing 3 with aliases born active (Andromeda-style, ablation)"
    (analyze
       ~config:{ Config.default with Config.activation_statements = false }
       (listing3 ()) "t.L3")

let () =
  let open Cmdliner in
  let all = [ run_figure2; run_listing2; run_listing3 ] in
  let which =
    Arg.(value
         & pos 0
             (enum
                [ ("figure2", [ run_figure2 ]); ("listing2", [ run_listing2 ]);
                  ("listing3", [ run_listing3 ]); ("all", all) ])
             all
         & info [] ~docv:"NAME" ~doc:"figure2, listing2, listing3 or all.")
  in
  let run = Term.(const (List.iter (fun run -> run ())) $ which) in
  exit (Cmd.eval (Cmd.v (Cmd.info "paper_listings") run))
