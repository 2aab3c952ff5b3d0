(** Dummy-main generation (Section 3, Figure 1).

    Android apps have no [main]; FlowDroid synthesises one per app that
    encodes every lifecycle ordering the framework may drive:

    - all components run in an arbitrary sequential order, with
      repetition (an outer opaque-predicate loop);
    - in a merged Scene of several apps the loop has two levels:
      [dummyMain] calls one static method [dummyMain_app<k>] per app
      (load order) in any order and number, and each of those is the
      component loop over its own app's components.  The set of
      component interleavings is the same as one flat loop's, but a
      static taint only enters the app methods whose code can touch
      its field (Bidi's static-field gate), and a component's locals
      die when its app method returns.  One app keeps the one flat
      method;
    - each activity runs Figure 1's lifecycle: create/start/resume,
      then its associated callbacks in any order and number, then
      pause, with opaque branches to resume again, restart, or be
      destroyed;
    - callbacks are invoked only within their owning component's
      resume/pause window, on the component instance itself when the
      handler lives on the component class, otherwise on a listener
      instance constructed (with the component as the outer reference
      when the constructor takes one) inside the component's section.

    The opaque predicate is a read of the static field
    [dummyMainClass#p], which no analysis stage evaluates — both
    branches of every conditional are explored, which is exactly the
    IFDS join the paper relies on instead of path sensitivity. *)

open Fd_ir
open Fd_callgraph
module B = Build
module FW = Fd_frontend.Framework

let dummy_class_name = "dummyMainClass"
let dummy_method_name = "dummyMain"

let opaque_field = Types.{ f_class = dummy_class_name; f_name = "p"; f_type = Int }

(* invoke a lifecycle/callback method with null arguments *)
let invoke_handler m recv cls (sig_ : Types.method_sig) =
  let args = List.map (fun _ -> B.nul) sig_.Types.m_params in
  B.vcall m recv cls sig_.Types.m_name args

let lifecycle_call scene m recv cls (lc : Lifecycle.lc_method) =
  match Lifecycle.implemented scene cls lc with
  | Some (decl, meth) -> invoke_handler m recv decl.Jclass.c_name meth.Jclass.jm_sig
  | None -> ()

(* fresh label generator per body *)
let labeler prefix =
  let n = ref 0 in
  fun tag ->
    incr n;
    Printf.sprintf "%s_%s_%d" prefix tag !n

(* emit: if p == <unevaluated> goto label  — an opaque branch *)
let opaque_branch m p label = B.ifgoto m (B.v p) Stmt.Ceq (B.i 0) label

(* callback dispatch block: a loop offering every callback of the
   component, each behind an opaque branch *)
let emit_callbacks m p ~fresh ~recv_of (cbs : Callbacks.callback list) =
  if cbs <> [] then begin
    let loop = fresh "cbloop" in
    let done_ = fresh "cbdone" in
    let labels = List.map (fun _ -> fresh "cb") cbs in
    B.label m loop;
    List.iter2 (fun _ l -> opaque_branch m p l) cbs labels;
    B.goto m done_;
    List.iter2
      (fun (cb : Callbacks.callback) l ->
        B.label m l;
        invoke_handler m (recv_of cb) cb.Callbacks.cb_class
          cb.Callbacks.cb_method.Jclass.jm_sig;
        B.goto m loop)
      cbs labels;
    B.label m done_;
    B.nop m
  end

(* construct the listener instances a component needs and return the
   receiver lookup *)
let emit_listeners scene m comp_local (cc : Callbacks.component_callbacks) =
  let table = Hashtbl.create 4 in
  List.iteri
    (fun i cls ->
      let l = B.local m (Printf.sprintf "listener%d" i) ~ty:(Types.Ref cls) in
      B.newobj m l cls;
      (* prefer a 1-argument constructor taking the outer component *)
      (match Scene.resolve_concrete scene cls ("<init>", [ Types.Ref Types.object_class ]) with
      | Some (decl, meth) when Jclass.has_body meth ->
          ignore decl;
          B.spcall m l cls "<init>" [ B.v comp_local ];
          ignore meth
      | _ -> (
          match Scene.resolve_concrete scene cls ("<init>", []) with
          | Some (_, meth) when Jclass.has_body meth ->
              B.spcall m l cls "<init>" []
          | _ -> ()));
      Hashtbl.replace table cls l)
    cc.Callbacks.cc_listener_classes;
  fun (cb : Callbacks.callback) ->
    if cb.Callbacks.cb_on_component then comp_local
    else Hashtbl.find table cb.Callbacks.cb_class

(* extension feature: AsyncTask blocks — [doInBackground]'s result
   feeds [onPostExecute], the data link FlowDroid models for
   framework-scheduled workers *)
let emit_async_tasks scene m p ~fresh comp (cc : Callbacks.component_callbacks) =
  List.iteri
    (fun i cls ->
      let skip = fresh (Printf.sprintf "task%d" i) in
      opaque_branch m p skip;
      let task = B.local m (Printf.sprintf "task%d_%d" i (Hashtbl.hash cls mod 97))
          ~ty:(Types.Ref cls) in
      B.newobj m task cls;
      (match
         Scene.resolve_concrete scene cls ("<init>", [ Types.Ref Types.object_class ])
       with
      | Some (_, meth) when Jclass.has_body meth ->
          B.spcall m task cls "<init>" [ B.v comp ]
      | _ -> (
          match Scene.resolve_concrete scene cls ("<init>", []) with
          | Some (_, meth) when Jclass.has_body meth ->
              B.spcall m task cls "<init>" []
          | _ -> ()));
      let call_opt name args ~ret =
        match Scene.resolve_concrete_named scene cls name with
        | Some (decl, meth) when Jclass.has_body meth ->
            ignore meth;
            (match ret with
            | Some r -> B.vcall m ~ret:r task decl.Jclass.c_name name args
            | None -> B.vcall m task decl.Jclass.c_name name args)
        | _ -> ()
      in
      call_opt "onPreExecute" [] ~ret:None;
      let r = B.local m (Printf.sprintf "taskres%d" i) in
      B.const m r B.nul;
      call_opt "doInBackground" [ B.nul ] ~ret:(Some r);
      call_opt "onProgressUpdate" [ B.nul ] ~ret:None;
      call_opt "onPostExecute" [ B.v r ] ~ret:None;
      B.label m skip;
      B.nop m)
    cc.Callbacks.cc_async_tasks

(* extension feature: fragment lifecycles attached to the component *)
let emit_fragments scene m p ~fresh comp (cc : Callbacks.component_callbacks) =
  List.mapi
    (fun i cls ->
      let skip = fresh (Printf.sprintf "frag%d" i) in
      opaque_branch m p skip;
      let frag = B.local m (Printf.sprintf "frag%d_%d" i (Hashtbl.hash cls mod 97))
          ~ty:(Types.Ref cls) in
      B.newobj m frag cls;
      (match Scene.resolve_concrete scene cls ("<init>", []) with
      | Some (_, meth) when Jclass.has_body meth ->
          B.spcall m frag cls "<init>" []
      | _ -> ());
      let call_frag name args =
        match Scene.resolve_concrete_named scene cls name with
        | Some (decl, meth) when Jclass.has_body meth ->
            ignore meth;
            B.vcall m frag decl.Jclass.c_name name args
        | _ -> ()
      in
      call_frag "onAttach" [ B.v comp ];
      call_frag "onCreate" [ B.nul ];
      call_frag "onCreateView" [ B.nul ];
      call_frag "onStart" [];
      call_frag "onResume" [];
      B.label m skip;
      B.nop m;
      (frag, cls))
    cc.Callbacks.cc_fragments

let teardown_fragments scene m frags =
  List.iter
    (fun (frag, cls) ->
      let call_frag name =
        match Scene.resolve_concrete_named scene cls name with
        | Some (decl, meth) when Jclass.has_body meth ->
            ignore meth;
            B.vcall m frag decl.Jclass.c_name name []
        | _ -> ()
      in
      List.iter call_frag
        [ "onPause"; "onStop"; "onDestroyView"; "onDestroy"; "onDetach" ])
    frags

let emit_component scene m p (cc : Callbacks.component_callbacks) idx =
  let fresh = labeler (Printf.sprintf "c%d" idx) in
  let cls = cc.Callbacks.cc_component in
  let comp = B.local m (Printf.sprintf "comp%d" idx) ~ty:(Types.Ref cls) in
  B.newobj m comp cls;
  (match Scene.resolve_concrete scene cls ("<init>", []) with
  | Some (_, meth) when Jclass.has_body meth -> B.spcall m comp cls "<init>" []
  | _ -> ());
  let recv_of = emit_listeners scene m comp cc in
  let lc = lifecycle_call scene m comp cls in
  (match cc.Callbacks.cc_kind with
  | FW.Activity ->
      let start_l = fresh "start" in
      let resume_l = fresh "resume" in
      let after_l = fresh "after" in
      lc Lifecycle.activity_create;
      let frags = emit_fragments scene m p ~fresh comp cc in
      B.label m start_l;
      lc Lifecycle.activity_start;
      B.label m resume_l;
      lc Lifecycle.activity_resume;
      emit_callbacks m p ~fresh ~recv_of cc.Callbacks.cc_callbacks;
      emit_async_tasks scene m p ~fresh comp cc;
      teardown_fragments scene m frags;
      lc Lifecycle.activity_pause;
      (* paused activity may resume directly *)
      opaque_branch m p resume_l;
      lc Lifecycle.activity_stop;
      (* stopped activity may restart *)
      opaque_branch m p after_l;
      lc Lifecycle.activity_destroy;
      B.goto m "mainLoop";
      B.label m after_l;
      lc Lifecycle.activity_restart;
      B.goto m start_l
  | FW.Service ->
      let loop_l = fresh "loop" in
      let end_l = fresh "end" in
      lc Lifecycle.service_create;
      B.label m loop_l;
      let offer lcm lbl =
        let skip = fresh lbl in
        opaque_branch m p skip;
        lc lcm;
        B.label m skip;
        B.nop m
      in
      offer Lifecycle.service_start_command "cmd";
      offer Lifecycle.service_start "start";
      offer Lifecycle.service_bind "bind";
      offer Lifecycle.service_unbind "unbind";
      emit_callbacks m p ~fresh ~recv_of cc.Callbacks.cc_callbacks;
      emit_async_tasks scene m p ~fresh comp cc;
      opaque_branch m p end_l;
      B.goto m loop_l;
      B.label m end_l;
      lc Lifecycle.service_destroy;
      B.goto m "mainLoop"
  | FW.Receiver ->
      lc Lifecycle.receiver_receive;
      emit_callbacks m p ~fresh ~recv_of cc.Callbacks.cc_callbacks;
      B.goto m "mainLoop"
  | FW.Provider ->
      let loop_l = fresh "loop" in
      let end_l = fresh "end" in
      lc Lifecycle.provider_create;
      B.label m loop_l;
      List.iter
        (fun lcm ->
          let skip = fresh "op" in
          opaque_branch m p skip;
          lc lcm;
          B.label m skip;
          B.nop m)
        (List.tl Lifecycle.provider_methods);
      emit_callbacks m p ~fresh ~recv_of cc.Callbacks.cc_callbacks;
      opaque_branch m p end_l;
      B.goto m loop_l;
      B.label m end_l;
      B.goto m "mainLoop")

(* the opaque dispatcher every dummy method is built on: from
   [mainLoop], branch to any block or fall through to [endMain]; each
   block ends by jumping back to [mainLoop], which gives arbitrary
   sequential order with repetition *)
let dispatch_loop m blocks =
  let p = B.local m "p" ~ty:Types.Int in
  B.loadstatic m p opaque_field;
  B.label m "mainLoop";
  List.iter (fun (l, _) -> opaque_branch m p l) blocks;
  B.goto m "endMain";
  List.iter
    (fun (l, emit) ->
      B.label m l;
      emit p)
    blocks;
  B.label m "endMain";
  B.ret m

(* the component loop over [ccs], each numbered by its index in the
   whole component list *)
let component_loop scene ccs name =
  B.meth name ~static:true (fun m ->
      dispatch_loop m
        (List.map
           (fun (i, cc) ->
             ( Printf.sprintf "component%d" i,
               fun p -> emit_component scene m p cc i ))
           ccs))

(* [ccs] numbered and grouped by declaring app, apps and components in
   first-appearance order *)
let by_app (ccs : Callbacks.component_callbacks list) =
  let indexed = List.mapi (fun i cc -> (i, cc)) ccs in
  let apps =
    List.fold_left
      (fun acc (_, cc) ->
        if List.mem cc.Callbacks.cc_app acc then acc
        else cc.Callbacks.cc_app :: acc)
      [] indexed
  in
  List.rev_map
    (fun app ->
      List.filter (fun (_, cc) -> String.equal cc.Callbacks.cc_app app) indexed)
    apps

(** [generate scene ccs] builds the dummy-main class for the given
    per-component callback sets, registers it in [scene] (replacing a
    previous one, so re-analysis with different settings works), and
    returns the entry-point key.  Components of one app share the one
    method [dummyMain]; with several apps, [dummyMain] loops over one
    static call per app and each [dummyMain_app<k>] (load order) is the
    component loop over its own app's components. *)
let generate scene (ccs : Callbacks.component_callbacks list) =
  Fd_obs.Trace.with_span "lifecycle.dummy_main" @@ fun () ->
  Fd_obs.Metrics.set_int
    (Fd_obs.Metrics.gauge "lifecycle.components")
    (List.length ccs);
  Fd_obs.Metrics.set_int
    (Fd_obs.Metrics.gauge "lifecycle.callbacks")
    (List.fold_left
       (fun acc cc -> acc + List.length cc.Callbacks.cc_callbacks)
       0 ccs);
  let methods =
    match by_app ccs with
    | ([] | [ _ ]) as apps ->
        [ component_loop scene (List.concat apps) dummy_method_name ]
    | apps ->
        let app_method k = Printf.sprintf "%s_app%d" dummy_method_name k in
        let outer =
          B.meth dummy_method_name ~static:true (fun m ->
              dispatch_loop m
                (List.mapi
                   (fun k _ ->
                     ( Printf.sprintf "app%d" k,
                       fun _ ->
                         B.scall m dummy_class_name (app_method k) [];
                         B.goto m "mainLoop" ))
                   apps))
        in
        outer
        :: List.mapi (fun k app -> component_loop scene app (app_method k)) apps
  in
  let dummy =
    Jclass.mk dummy_class_name ~fields:[ opaque_field ]
      ~methods:(List.map (fun meth -> meth dummy_class_name) methods)
  in
  Scene.add_or_replace scene dummy;
  Mkey.{ mk_class = dummy_class_name; mk_name = dummy_method_name; mk_arity = 0 }

(** [generate_plain scene entries] builds the non-Android equivalent
    of the dummy main (FlowDroid's default entry-point creator): all
    given entry methods are callable in any sequential order and
    number, behind opaque branches.  This is how the SecuriBench setup
    lets static-field flows connect separately declared entry points
    (the Inter group). *)
let generate_plain scene (entries : Mkey.t list) =
  Fd_obs.Trace.with_span "lifecycle.dummy_main" @@ fun () ->
  let entry_block m i (k : Mkey.t) _p =
    let cls = k.Mkey.mk_class in
    let args = List.init k.Mkey.mk_arity (fun _ -> B.nul) in
    let is_static =
      match Scene.find_class scene cls with
      | Some c -> (
          match
            List.find_opt
              (fun (jm : Jclass.jmethod) ->
                jm.Jclass.jm_sig.Types.m_name = k.Mkey.mk_name
                && List.length jm.Jclass.jm_sig.Types.m_params = k.Mkey.mk_arity)
              c.Jclass.c_methods
          with
          | Some jm -> jm.Jclass.jm_static
          | None -> true)
      | None -> true
    in
    if is_static then B.scall m cls k.Mkey.mk_name args
    else begin
      let recv = B.local m (Printf.sprintf "recv%d" i) ~ty:(Types.Ref cls) in
      B.newobj m recv cls;
      (match Scene.resolve_concrete scene cls ("<init>", []) with
      | Some (_, meth) when Jclass.has_body meth ->
          B.spcall m recv cls "<init>" []
      | _ -> ());
      B.vcall m recv cls k.Mkey.mk_name args
    end;
    B.goto m "mainLoop"
  in
  let dummy =
    Jclass.mk dummy_class_name ~fields:[ opaque_field ]
      ~methods:
        [
          B.meth dummy_method_name ~static:true
            (fun m ->
              dispatch_loop m
                (List.mapi
                   (fun i k -> (Printf.sprintf "entry%d" i, entry_block m i k))
                   entries))
            dummy_class_name;
        ]
  in
  Scene.add_or_replace scene dummy;
  Mkey.{ mk_class = dummy_class_name; mk_name = dummy_method_name; mk_arity = 0 }
