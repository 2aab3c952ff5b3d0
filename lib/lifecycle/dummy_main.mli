(** Dummy-main generation (Section 3, Figure 1).

    Synthesises the per-app entry point in which all components run in
    an arbitrary sequential order with repetition, each activity runs
    Figure 1's lifecycle with its associated callbacks between resume
    and pause, and — as extension features — fragments run attached to
    their host and AsyncTasks run with the background result feeding
    [onPostExecute].  All branching is on an opaque static-field read
    that no analysis stage evaluates. *)

open Fd_ir
open Fd_callgraph

val generate : Scene.t -> Callbacks.component_callbacks list -> Mkey.t
(** [generate scene ccs] builds the dummy-main class for the given
    per-component callback sets, registers it in [scene] (replacing a
    previous one), and returns the entry-point key.  The components of
    one app share the one method [dummyMain]; when [ccs] spans several
    apps ([cc_app]), [dummyMain] loops over one static call per app
    and each [dummyMain_app<k>] (apps in first-appearance order) is
    the component loop over that app's components. *)

val generate_plain : Scene.t -> Mkey.t list -> Mkey.t
(** [generate_plain scene entries] is the non-Android equivalent
    (FlowDroid's default entry-point creator): all given entry methods
    callable in any sequential order and number behind opaque
    branches — what lets static-field flows connect separately
    declared entry points (SecuriBench's Inter group). *)
