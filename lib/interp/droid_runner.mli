(** The event driver: dynamic (TaintDroid-style) analysis of apps.

    Coverage is an explicit knob, reproducing the paper's Section 7
    observation that a dynamic monitor is only as complete as the test
    driver that exercises the app. *)

open Value

type coverage =
  | Basic  (** launch each component once: create → start → resume *)
  | Thorough
      (** full lifecycle excursions, every discovered callback fired
          between resume and pause, the component schedule run twice *)

val run :
  ?coverage:coverage ->
  ?max_steps:int ->
  ?icc:bool ->
  Fd_frontend.Apk.merged ->
  leak list
(** [run m] concretely executes a loaded app set — one app, or several
    sharing one merged scene ({!Fd_frontend.Apk.load_merged}) — under
    the given coverage policy (default {!Thorough}) and returns the
    observed leaks.  Framework behaviour comes from {!Builtins};
    execution stops at [max_steps] interpreter steps.

    With [~icc:true] the driver concretely dispatches sent intents:
    each intent a component sends is resolved against the manifests
    (Android's filter tests on the concrete payload) and the receiving
    components run with the very intent object, so taint rides into
    them through the shared heap.  Within its own app a sender reaches
    every matching component, across apps only exported ones.
    Deliverable sends stop counting as sinks themselves, and tainted
    [setResult] payloads become leaks — the dynamic counterpart of the
    static {!Fd_core.Config.t.icc} tier. *)

val run_plain :
  ?max_steps:int ->
  classes:Fd_ir.Jclass.t list ->
  entries:(string * string) list ->
  defs:Fd_frontend.Sourcesink.t ->
  unit ->
  leak list
(** [run_plain ~classes ~entries ~defs ()] dynamically executes a
    plain (non-Android) program: each [(class, method)] entry is
    invoked once with generic arguments; sources and sinks come from
    [defs] (the SecuriBench setup). *)

val findings : leak list -> (string option * string option) list
(** [findings leaks] views dynamic leaks as (source tag, sink tag)
    pairs for uniform scoring against benchmark ground truth. *)
