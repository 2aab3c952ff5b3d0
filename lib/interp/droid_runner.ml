(** The event driver: dynamic analysis of Android apps.

    TaintDroid-style monitors only observe executions that actually
    happen; their completeness is bounded by how thoroughly a test
    driver exercises the app (Section 7: "TaintDroid can successfully
    detect malware only if paired with a dynamic testing approach that
    yields decent code coverage").  This driver makes that coverage an
    explicit knob:

    - {b Basic}: launch each component once and run only the startup
      path (create → start → resume) — the naive monkey-test level;
    - {b Thorough}: full lifecycle excursions (pause/resume cycles,
      stop/restart, destroy), every discovered callback fired between
      resume and pause, and the whole component schedule repeated so
      state staged in one round can leak in the next.

    The DroidBench comparison between the two coverage levels and the
    static analysis reproduces the paper's static-vs-dynamic
    trade-off: the dynamic monitor never reports a false positive
    (per-cell array precision, real strong updates, concrete map
    keys), finds the reflective/initialisation flows statics miss, and
    silently loses every leak its driver fails to exercise. *)

open Fd_ir
open Value
module SS = Fd_frontend.Sourcesink
module FW = Fd_frontend.Framework
module M = Fd_frontend.Manifest

type coverage = Basic | Thorough

(* a fresh intent carrying externally supplied (hence tainted) data,
   handed to receivers and getIntent *)
let make_external_intent st =
  let id = Interp.alloc_obj st ~payload:(Pmap (ref [])) "android.content.Intent" in
  let o = Interp.obj st id in
  (match o.h_payload with
  | Pmap m ->
      m :=
        [
          ( "data",
            with_labels
              (Labels.singleton
                 (label ~category:SS.Intent_data "external intent extra"))
              (Vstr "external-intent-data") );
        ]
  | _ -> ());
  untainted (Vobj id)

let make_location st =
  let id = Interp.alloc_obj st "android.location.Location" in
  let o = Interp.obj st id in
  let lbl =
    Labels.singleton (label ~category:SS.Location "framework location update")
  in
  Hashtbl.replace o.h_fields "lat" (with_labels lbl (Vstr "49.8728"));
  Hashtbl.replace o.h_fields "lon" (with_labels lbl (Vstr "8.6512"));
  with_labels lbl (Vobj id)

(* dummy argument values by parameter type *)
let arg_for st (ty : Types.typ) =
  match ty with
  | Types.Int | Types.Bool | Types.Char | Types.Long -> untainted (Vint 0)
  | Types.Ref "android.location.Location" -> make_location st
  | Types.Ref "android.content.Intent" -> make_external_intent st
  | Types.Ref "android.view.View" ->
      untainted (Vobj (Interp.alloc_obj st "android.view.View"))
  | Types.Ref "android.os.Bundle" ->
      untainted (Vobj (Interp.alloc_obj st ~payload:(Pmap (ref [])) "android.os.Bundle"))
  | Types.Ref "android.content.Context" ->
      untainted (Vobj (Interp.alloc_obj st "android.content.Context"))
  | _ -> untainted Vnull

let call_lc st ?intent inst _cls (m : Jclass.jmethod) =
  let args =
    List.map
      (fun ty ->
        match (ty, intent) with
        (* a concretely dispatched intent reaches the receiver's
           parameters (onReceive, onStartCommand, onNewIntent) *)
        | Types.Ref "android.content.Intent", Some tv -> tv
        | _ -> arg_for st ty)
      m.Jclass.jm_sig.Types.m_params
  in
  try
    ignore
      (Interp.exec_body st m.Jclass.jm_sig (Option.get m.Jclass.jm_body)
         ~this:(Some inst) ~args)
  with Interp.Runtime_error _ -> ()

let lc st scene ?intent inst cls name =
  match Scene.resolve_concrete_named scene cls name with
  | Some (_, m) when Jclass.has_body m -> call_lc st ?intent inst cls m
  | _ -> ()

(* fire the component's callbacks, on the component instance or fresh
   listener instances (with the component as outer reference) *)
let fire_callbacks st scene inst (cc : Fd_lifecycle.Callbacks.component_callbacks) =
  List.iter
    (fun (cb : Fd_lifecycle.Callbacks.callback) ->
      let recv =
        if cb.Fd_lifecycle.Callbacks.cb_on_component then inst
        else begin
          let cls = cb.Fd_lifecycle.Callbacks.cb_class in
          let id = Interp.alloc_obj st cls in
          let tv = untainted (Vobj id) in
          (* prefer the outer-reference constructor *)
          (match
             Scene.resolve_concrete scene cls
               ("<init>", [ Types.Ref Types.object_class ])
           with
          | Some (_, m) when Jclass.has_body m ->
              ignore
                (Interp.exec_body st m.Jclass.jm_sig
                   (Option.get m.Jclass.jm_body) ~this:(Some tv) ~args:[ inst ])
          | _ -> (
              match Scene.resolve_concrete scene cls ("<init>", []) with
              | Some (_, m) when Jclass.has_body m ->
                  ignore
                    (Interp.exec_body st m.Jclass.jm_sig
                       (Option.get m.Jclass.jm_body) ~this:(Some tv) ~args:[])
              | _ -> ()));
          tv
        end
      in
      try call_lc st recv cb.Fd_lifecycle.Callbacks.cb_class
            cb.Fd_lifecycle.Callbacks.cb_method
      with Interp.Runtime_error _ -> ())
    cc.Fd_lifecycle.Callbacks.cc_callbacks

(* extension features under Thorough coverage: fire AsyncTasks with
   the doInBackground->onPostExecute result link, and run fragment
   lifecycles attached to the component *)
let fire_async_tasks st scene inst (cc : Fd_lifecycle.Callbacks.component_callbacks) =
  List.iter
    (fun cls ->
      let task = untainted (Vobj (Interp.alloc_obj st cls)) in
      (match
         Scene.resolve_concrete scene cls
           ("<init>", [ Types.Ref Types.object_class ])
       with
      | Some (_, m) when Jclass.has_body m ->
          ignore
            (Interp.exec_body st m.Jclass.jm_sig (Option.get m.Jclass.jm_body)
               ~this:(Some task) ~args:[ inst ])
      | _ -> ());
      let call name args =
        match Scene.resolve_concrete_named scene cls name with
        | Some (_, m) when Jclass.has_body m -> (
            try
              Some
                (Interp.exec_body st m.Jclass.jm_sig
                   (Option.get m.Jclass.jm_body) ~this:(Some task) ~args)
            with Interp.Runtime_error _ -> None)
        | _ -> None
      in
      ignore (call "onPreExecute" []);
      let r =
        Option.value (call "doInBackground" [ untainted Vnull ])
          ~default:(untainted Vnull)
      in
      ignore (call "onPostExecute" [ r ]))
    cc.Fd_lifecycle.Callbacks.cc_async_tasks

let fragment_instances st scene inst (cc : Fd_lifecycle.Callbacks.component_callbacks) =
  List.map
    (fun cls ->
      let frag = Interp.new_instance st cls in
      let call name args =
        match Scene.resolve_concrete_named scene cls name with
        | Some (_, m) when Jclass.has_body m -> (
            try
              ignore
                (Interp.exec_body st m.Jclass.jm_sig
                   (Option.get m.Jclass.jm_body) ~this:(Some frag) ~args)
            with Interp.Runtime_error _ -> ())
        | _ -> ()
      in
      call "onAttach" [ inst ];
      call "onCreate" [ untainted Vnull ];
      call "onCreateView" [ untainted Vnull ];
      call "onStart" [];
      call "onResume" [];
      (frag, cls))
    cc.Fd_lifecycle.Callbacks.cc_fragments

let teardown_fragments st scene frags =
  List.iter
    (fun (frag, cls) ->
      let call name =
        match Scene.resolve_concrete_named scene cls name with
        | Some (_, m) when Jclass.has_body m -> (
            try
              ignore
                (Interp.exec_body st m.Jclass.jm_sig
                   (Option.get m.Jclass.jm_body) ~this:(Some frag) ~args:[])
            with Interp.Runtime_error _ -> ())
        | _ -> ()
      in
      List.iter call
        [ "onPause"; "onStop"; "onDestroyView"; "onDestroy"; "onDetach" ])
    frags

let run_component st scene ~coverage ?intent
    (cc : Fd_lifecycle.Callbacks.component_callbacks) =
  let cls = cc.Fd_lifecycle.Callbacks.cc_component in
  let inst = Interp.new_instance st cls in
  (* attach the dispatched intent (or a fresh external one) for
     getIntent *)
  (match inst.v with
  | Vobj id ->
      Hashtbl.replace (Interp.obj st id).h_fields "__intent"
        (match intent with
        | Some tv -> tv
        | None -> make_external_intent st)
  | _ -> ());
  let l = lc st scene ?intent inst cls in
  match cc.Fd_lifecycle.Callbacks.cc_kind with
  | FW.Activity -> (
      l "onCreate";
      l "onStart";
      l "onResume";
      match coverage with
      | Basic -> ()
      | Thorough ->
          let frags = fragment_instances st scene inst cc in
          fire_callbacks st scene inst cc;
          fire_async_tasks st scene inst cc;
          teardown_fragments st scene frags;
          l "onPause";
          (* resumed again without stopping *)
          l "onResume";
          fire_callbacks st scene inst cc;
          l "onPause";
          l "onStop";
          (* restart excursion *)
          l "onRestart";
          l "onStart";
          l "onResume";
          fire_callbacks st scene inst cc;
          (* framework-driven overrides such as onLowMemory *)
          l "onLowMemory";
          l "onBackPressed";
          l "onPause";
          l "onStop";
          l "onDestroy")
  | FW.Service -> (
      l "onCreate";
      (match Scene.resolve_concrete_named scene cls "onStartCommand" with
      | Some (_, m) when Jclass.has_body m -> call_lc st ?intent inst cls m
      | _ -> lc st scene ?intent inst cls "onStart");
      match coverage with
      | Basic -> ()
      | Thorough ->
          fire_callbacks st scene inst cc;
          lc st scene inst cls "onLowMemory";
          l "onDestroy")
  | FW.Receiver -> (
      l "onReceive";
      match coverage with
      | Basic -> ()
      | Thorough -> fire_callbacks st scene inst cc)
  | FW.Provider -> (
      l "onCreate";
      match coverage with
      | Basic -> ()
      | Thorough ->
          List.iter l [ "query"; "insert"; "update"; "delete" ];
          fire_callbacks st scene inst cc)

(* ------------------------------------------------------------------ *)
(* Concrete intent dispatch (the ICC driver)                           *)
(* ------------------------------------------------------------------ *)

(* read a sent intent's reserved "__" keys back into intent
   descriptions: the static abstraction's reading, with at most one
   value per setter *)
let descs_of_sent st (tv : tvalue) : M.intent_desc list =
  match tv.v with
  | Vobj id -> (
      match (Interp.obj st id).h_payload with
      | Pmap m ->
          let find k =
            match List.assoc_opt k !m with
            | Some { v = Vstr s; _ } -> [ s ]
            | _ -> []
          in
          M.intent_descs ~classes:(find "__class") ~actions:(find "__action")
            ~categories:
              (List.concat_map (String.split_on_char '\n')
                 (find "__categories"))
            ~uris:(find "__data") ~mimes:(find "__mime")
      | _ -> [])
  | _ -> []

(* the classes able to receive any of [descs] *)
let receivers_of ~apps ~sender_app descs =
  M.receivers ~apps ~sender_app descs
  |> List.map (fun (_, (c : M.component)) -> c.M.comp_class)
  |> List.sort_uniq compare

(** [run ?coverage ?max_steps ?icc m] dynamically executes a loaded
    app set — one app, or several sharing one merged scene — under the
    given coverage policy and returns the observed leaks.  With
    [~icc:true] the driver concretely dispatches sent intents to their
    resolved receivers (taint rides the intent object; across apps
    only into exported components), suppresses deliverable sends as
    sinks, and monitors [setResult] payloads. *)
let run ?(coverage = Thorough) ?(max_steps = 2_000_000) ?(icc = false)
    (m : Fd_frontend.Apk.merged) =
  let apps = m.Fd_frontend.Apk.m_apps in
  let app_of = m.Fd_frontend.Apk.m_app_of in
  let loaded = m.Fd_frontend.Apk.m_loaded in
  let scene = loaded.Fd_frontend.Apk.scene in
  let st =
    Interp.create ~max_steps ~scene ~defs:(SS.default ())
      ~layout:loaded.Fd_frontend.Apk.layout ()
  in
  Builtins.install st;
  let ccs = Fd_lifecycle.Callbacks.discover_all loaded in
  let current_app = ref None in
  if icc then begin
    (* a deliverable send is not a leak by itself — the monitor
       follows the intent into the receiver instead (the dynamic
       counterpart of the static tier dropping resolved sends) *)
    st.Interp.sink_filter <-
      (fun mname args ->
        List.mem mname M.send_methods
        &&
        match args with
        | intent :: _ ->
            receivers_of ~apps ~sender_app:!current_app
              (descs_of_sent st intent)
            <> []
        | [] -> false);
    (* a tainted setResult payload is handed back to the external
       caller: a leak the plain driver does not monitor *)
    let base = st.Interp.builtin in
    st.Interp.builtin <-
      (fun st ~tag ~cls ~runtime_cls ~mname ~recv ~args ->
        (match mname with
        | "setResult" ->
            let labels =
              List.fold_left
                (fun acc a -> join acc (Interp.deep_labels st a))
                Labels.empty args
            in
            if not (Labels.is_empty labels) then
              Interp.record_leak st ~labels ~sink_tag:tag
                ~sink_cat:SS.Intent_data
                ~where:"android.app.Activity.setResult"
        | _ -> ());
        base st ~tag ~cls ~runtime_cls ~mname ~recv ~args)
  end;
  (* bounded concrete dispatch: drain the intents a component sent,
     resolve them against the manifests and run the receivers with the
     very intent object (taint flows through the shared heap) *)
  let dispatch_budget = ref 64 in
  let rec run_one ~depth ?intent (cc : Fd_lifecycle.Callbacks.component_callbacks) =
    let sender = app_of cc.Fd_lifecycle.Callbacks.cc_component in
    current_app := sender;
    st.Interp.sent_intents <- [];
    run_component st scene ~coverage ?intent cc;
    if icc && depth < 4 then begin
      let pending = List.rev st.Interp.sent_intents in
      st.Interp.sent_intents <- [];
      List.iter
        (fun (_mname, itv) ->
          List.iter
            (fun target ->
              if !dispatch_budget > 0 then begin
                decr dispatch_budget;
                match
                  List.find_opt
                    (fun c ->
                      c.Fd_lifecycle.Callbacks.cc_component = target)
                    ccs
                with
                | Some rcc -> run_one ~depth:(depth + 1) ~intent:itv rcc
                | None -> ()
              end)
            (receivers_of ~apps ~sender_app:sender (descs_of_sent st itv)))
        pending;
      current_app := sender
    end
  in
  let rounds = match coverage with Basic -> 1 | Thorough -> 2 in
  (try
     for _round = 1 to rounds do
       List.iter (run_one ~depth:0) ccs
     done
   with Interp.Budget_exhausted -> ());
  Interp.leaks st

(** [run_plain ~classes ~entries ~defs ()] dynamically executes a
    plain (non-Android) program: each entry method is invoked once on
    a fresh instance (or statically), with generic objects for its
    parameters.  Sources and sinks come from [defs] — the generic
    source/sink interception in the interpreter handles any configured
    method, so the same SecuriBench setup that drives the static RQ4
    experiment drives the dynamic monitor. *)
let run_plain ?(max_steps = 2_000_000) ~classes ~entries ~defs () =
  let scene = Fd_frontend.Framework.fresh_scene () in
  List.iter (Scene.add_class scene) classes;
  let st =
    Interp.create ~max_steps ~scene ~defs
      ~layout:(Fd_frontend.Layout.parse []) ()
  in
  Builtins.install st;
  (try
     List.iter
       (fun (cls, mname) ->
         match Scene.resolve_concrete_named scene cls mname with
         | Some (_, m) when Jclass.has_body m ->
             let this =
               if m.Jclass.jm_static then None
               else Some (Interp.new_instance st cls)
             in
             let args =
               List.map
                 (fun ty ->
                   match ty with
                   | Types.Int | Types.Bool | Types.Char | Types.Long ->
                       untainted (Vint 0)
                   | _ ->
                       untainted
                         (Vobj (Interp.alloc_obj st "framework.Generic")))
                 m.Jclass.jm_sig.Types.m_params
             in
             (try
                ignore
                  (Interp.exec_body st m.Jclass.jm_sig
                     (Option.get m.Jclass.jm_body) ~this ~args)
              with Interp.Runtime_error _ -> ())
         | _ -> ())
       entries
   with Interp.Budget_exhausted -> ());
  Interp.leaks st

(** [findings leaks] views dynamic leaks as (source tag, sink tag)
    pairs for uniform scoring against benchmark ground truth. *)
let findings leaks =
  List.map
    (fun (lk : leak) ->
      ( (match lk.lk_labels with l :: _ -> l.lb_tag | [] -> None),
        lk.lk_sink_tag ))
    leaks
  |> List.sort_uniq compare
