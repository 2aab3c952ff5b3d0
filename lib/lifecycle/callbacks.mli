(** Callback discovery (Section 3, "Callbacks").

    Per component, iterates: build a call graph from the implemented
    lifecycle methods, scan reachable code for imperative registrations
    / [setContentView]-installed XML handlers / overridden framework
    methods, extend the entry set with the discovered handlers, repeat
    to a fixed point (handlers may register further callbacks). *)

open Fd_ir
open Fd_callgraph
module FW = Fd_frontend.Framework

type callback = {
  cb_class : string;  (** class declaring the handler implementation *)
  cb_method : Jclass.jmethod;
  cb_on_component : bool;
      (** handler lives on the component class itself (invoked on the
          component instance rather than on a fresh listener) *)
  cb_kind : kind;
}

and kind =
  | Registered of string  (** via a registration call; payload = interface *)
  | Xml_declared  (** android:onClick in a layout file *)
  | Overridden  (** overrides a framework method *)

type component_callbacks = {
  cc_component : string;
  cc_app : string;
      (** the app declaring the component; in a merged Scene the dummy
          main drives each app's components from that app's own
          method *)
  cc_kind : FW.component_kind;
  cc_lifecycle : Mkey.t list;  (** implemented lifecycle entry points *)
  cc_callbacks : callback list;
  cc_listener_classes : string list;
      (** non-component classes whose instances receive callbacks; the
          dummy main instantiates them *)
  cc_async_tasks : string list;
      (** AsyncTask subclasses executed by this component (extension
          feature) *)
  cc_fragments : string list;
      (** Fragment subclasses this component instantiates (extension
          feature) *)
}

val discover_all : Fd_frontend.Apk.loaded -> component_callbacks list
(** [discover_all loaded] runs discovery for every enabled component. *)
