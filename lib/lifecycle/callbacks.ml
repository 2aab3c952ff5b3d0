(** Callback discovery (Section 3, "Callbacks").

    For each component the paper's algorithm:

    + builds a call graph starting at the component's implemented
      lifecycle methods;
    + scans reachable code for (a) imperative registrations — calls to
      well-known framework registration methods taking a callback
      interface — (b) [setContentView]/XML-declared handlers, and
      (c) overridden framework methods;
    + extends the entry set with the discovered handlers and repeats
      until a fixed point, because callback handlers may register
      further callbacks.

    The per-component association this produces ("a button-click
    handler is analysed only in the context of its activity") is what
    distinguishes the precise dummy main from a global
    all-callbacks-everywhere model; the [~per_component:false] ablation
    reproduces the imprecise variant for the benchmarks. *)

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
  cc_app : string;  (** the app declaring the component *)
  cc_kind : FW.component_kind;
  cc_lifecycle : Mkey.t list;  (** implemented lifecycle entry points *)
  cc_callbacks : callback list;
  cc_listener_classes : string list;
      (** non-component classes whose instances receive callbacks; the
          dummy main instantiates them *)
  cc_async_tasks : string list;
      (** AsyncTask subclasses executed by this component: the dummy
          main drives [doInBackground] and feeds its result into
          [onPostExecute] (extension feature) *)
  cc_fragments : string list;
      (** Fragment subclasses this component instantiates: the dummy
          main runs their lifecycle attached to the component
          (extension feature) *)
}

(* what one round of discovery reads off the bodies reachable in its
   call graph; one walk collects it all *)
type scan = {
  registered : string list;
      (** interfaces that got a listener registered *)
  instantiated : string list;  (** classes allocated with [new] *)
  layouts : string list;  (** layouts installed via setContentView(const) *)
  executes : bool;  (** some call is named [execute] *)
}

let scan cg (layout : Fd_frontend.Layout.t) =
  let ifaces = Hashtbl.create 8 and insts = Hashtbl.create 32 in
  let layouts = ref [] and executes = ref false in
  List.iter
    (fun k ->
      match Callgraph.body_of cg k with
      | exception Not_found -> ()
      | body ->
          Body.iter body (fun s ->
              (match s.Stmt.s_kind with
              | Stmt.Assign (_, Stmt.Enew c) -> Hashtbl.replace insts c ()
              | _ -> ());
              match Stmt.invoke_of s with
              | None -> ()
              | Some inv -> (
                  let name = inv.Stmt.i_sig.Types.m_name in
                  if name = "execute" then executes := true;
                  (match FW.registered_interface name with
                  | Some iface -> Hashtbl.replace ifaces iface ()
                  | None -> ());
                  match inv.Stmt.i_args with
                  | [ Stmt.Iconst (Stmt.CInt id) ] when name = "setContentView"
                    ->
                      List.iter
                        (fun (lname, lid) ->
                          if lid = id && not (List.mem lname !layouts) then
                            layouts := lname :: !layouts)
                        layout.Fd_frontend.Layout.layouts
                  | _ -> ())))
    (Callgraph.reachable_methods cg);
  let keys tbl = Hashtbl.fold (fun k () acc -> k :: acc) tbl [] in
  {
    registered = keys ifaces;
    instantiated = keys insts;
    layouts = !layouts;
    executes = !executes;
  }

(** [discover scene layout ~app ~component ~kind] runs the iterative
    discovery for one component of [app] and returns its callback
    set. *)
let discover scene (layout : Fd_frontend.Layout.t) ~app ~component ~kind =
  let lifecycle =
    Lifecycle.implemented_methods scene component kind
    |> List.map (fun (decl, m) -> Mkey.of_method decl m)
  in
  let found : (string * string, callback) Hashtbl.t = Hashtbl.create 8 in
  let key (cb : callback) = (cb.cb_class, cb.cb_method.Jclass.jm_sig.Types.m_name) in
  let add cb =
    if Hashtbl.mem found (key cb) then false
    else begin
      Hashtbl.replace found (key cb) cb;
      true
    end
  in
  (* (c) overridden framework methods: independent of reachability *)
  List.iter
    (fun m ->
      ignore
        (add
           {
             cb_class = component;
             cb_method = m;
             cb_on_component = true;
             cb_kind = Overridden;
           }))
    (FW.overridden_framework_callbacks scene component);
  let changed = ref true and last_scan = ref None in
  while !changed do
    changed := false;
    let entry =
      lifecycle
      @ List.map
          (fun (_, cb) ->
            Mkey.of_sig
              { cb.cb_method.Jclass.jm_sig with Types.m_class = cb.cb_class })
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) found [])
    in
    if entry <> [] then begin
      let seen = scan (Callgraph.build scene ~entry ()) layout in
      last_scan := Some seen;
      (* (a) imperative registrations *)
      let insts = component :: seen.instantiated in
      List.iter
        (fun iface ->
          List.iter
            (fun cls ->
              if Scene.is_subtype scene cls iface then
                List.iter
                  (fun (iname, decl, meth) ->
                    if iname = iface then
                      let cb =
                        {
                          cb_class = cls;
                          cb_method = meth;
                          cb_on_component = cls = component;
                          cb_kind = Registered iface;
                        }
                      in
                      ignore decl;
                      if add cb then changed := true)
                  (FW.callback_methods_of scene cls))
            insts)
        seen.registered;
      (* (b) XML-declared handlers in the layouts this component
         installs: handlers are methods on the component class taking a
         View *)
      List.iter
        (fun lname ->
          List.iter
            (fun handler ->
              match Scene.resolve_concrete_named scene component handler with
              | Some (decl, meth)
                when Jclass.has_body meth && not decl.Jclass.c_phantom ->
                  let cb =
                    {
                      cb_class = component;
                      cb_method = meth;
                      cb_on_component = true;
                      cb_kind = Xml_declared;
                    }
                  in
                  if add cb then changed := true
              | _ -> ())
            (Fd_frontend.Layout.xml_callbacks layout lname))
        seen.layouts
    end
  done;
  (* extension features: AsyncTask subclasses that reachable code
     executes, and Fragment subclasses it instantiates.  The last round
     found nothing new, so its scan covers the final entry set. *)
  let async_tasks, fragments =
    match !last_scan with
    | None -> ([], [])
    | Some { instantiated = insts; executes; _ } ->
        let tasks =
          if executes then
            List.filter
              (fun c -> Scene.is_subtype scene c FW.async_task_class)
              insts
          else []
        in
        let frags =
          List.filter (fun c -> Scene.is_subtype scene c FW.fragment_class) insts
        in
        (List.sort_uniq compare tasks, List.sort_uniq compare frags)
  in
  let callbacks = Hashtbl.fold (fun _ cb acc -> cb :: acc) found [] in
  let listener_classes =
    List.sort_uniq compare
      (List.filter_map
         (fun cb -> if cb.cb_on_component then None else Some cb.cb_class)
         callbacks)
  in
  {
    cc_component = component;
    cc_app = app;
    cc_kind = kind;
    cc_lifecycle = lifecycle;
    cc_callbacks =
      List.sort
        (fun a b -> compare (key a) (key b))
        callbacks;
    cc_listener_classes = listener_classes;
    cc_async_tasks = async_tasks;
    cc_fragments = fragments;
  }

(** [discover_all loaded] runs discovery for every enabled component of
    a loaded app set; each component is attributed to the app that
    declares its class. *)
let discover_all (loaded : Fd_frontend.Apk.loaded) =
  List.map
    (fun (c : Fd_frontend.Manifest.component) ->
      let component = c.Fd_frontend.Manifest.comp_class in
      discover loaded.Fd_frontend.Apk.scene loaded.Fd_frontend.Apk.layout
        ~app:(Fd_frontend.Apk.app_name loaded component)
        ~component
        ~kind:c.Fd_frontend.Manifest.comp_kind)
    loaded.Fd_frontend.Apk.components
