(** Android component lifecycles.

    Section 3 of the paper: every component kind has framework-driven
    lifecycle methods, and a faithful model of their ordering is what
    separates FlowDroid from entry-point heuristics.  This module
    declares the lifecycle method tables; {!Dummy_main} turns them
    into code. *)

open Fd_ir
module T = Types

(** A lifecycle method: name and parameter types (arguments are passed
    as [null] constants by the dummy main; parameter *sources* such as
    [onReceive]'s intent are seeded by the taint engine at the
    callback's identity statements). *)
type lc_method = { lc_name : string; lc_params : T.typ list }

let m name params = { lc_name = name; lc_params = params }

let bundle = T.Ref "android.os.Bundle"
let intent = T.Ref "android.content.Intent"
let context = T.Ref "android.content.Context"

(** Activity lifecycle, the methods appearing in Figure 1. *)
let activity_create = m "onCreate" [ bundle ]

let activity_start = m "onStart" []
let activity_resume = m "onResume" []
let activity_pause = m "onPause" []
let activity_stop = m "onStop" []
let activity_restart = m "onRestart" []
let activity_destroy = m "onDestroy" []

let activity_methods =
  [
    activity_create; activity_start; activity_resume; activity_pause;
    activity_stop; activity_restart; activity_destroy;
  ]

let service_create = m "onCreate" []
let service_start_command = m "onStartCommand" [ intent; T.Int; T.Int ]
let service_start = m "onStart" [ intent; T.Int ]
let service_bind = m "onBind" [ intent ]
let service_unbind = m "onUnbind" [ intent ]
let service_destroy = m "onDestroy" []

let service_methods =
  [
    service_create; service_start_command; service_start; service_bind;
    service_unbind; service_destroy;
  ]

let receiver_receive = m "onReceive" [ context; intent ]
let receiver_methods = [ receiver_receive ]

let provider_create = m "onCreate" []

let provider_methods =
  [
    provider_create;
    m "query" [ T.Ref "android.net.Uri" ];
    m "insert" [ T.Ref "android.net.Uri"; T.Ref "android.content.ContentValues" ];
    m "update" [ T.Ref "android.net.Uri"; T.Ref "android.content.ContentValues" ];
    m "delete" [ T.Ref "android.net.Uri" ];
  ]

(** [methods_of kind] is every lifecycle method of a component kind. *)
let methods_of = function
  | Fd_frontend.Framework.Activity -> activity_methods
  | Fd_frontend.Framework.Service -> service_methods
  | Fd_frontend.Framework.Receiver -> receiver_methods
  | Fd_frontend.Framework.Provider -> provider_methods

(** [implemented scene cls lc] resolves the lifecycle method [lc] to a
    concrete body-bearing implementation on [cls], if the app
    overrides it.  Most probes find nothing and no call site asks them
    again, so they bypass the scene's memo rather than stay in it
    through the solve. *)
let implemented scene cls lc =
  match
    Scene.resolve_concrete_uncached scene cls (lc.lc_name, lc.lc_params)
  with
  | Some (decl, meth) when Jclass.has_body meth && not decl.Jclass.c_phantom ->
      Some (decl, meth)
  | _ -> None

(** [implemented_methods scene cls kind] is the lifecycle methods of a
    [kind] component class [cls] that the app actually implements —
    the entry points used to seed callback discovery. *)
let implemented_methods scene cls kind =
  List.filter_map (implemented scene cls) (methods_of kind)
