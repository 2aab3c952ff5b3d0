(** The serve daemon's wire protocol: length-prefixed JSON frames over
    a Unix-domain stream socket.

    {b Framing.}  Every message — request or response — is one JSON
    document prefixed by its byte length as a 4-byte big-endian
    unsigned integer.  A frame whose declared length exceeds the
    reader's limit is {e consumed and discarded} (the stream stays
    framed) and reported as {!Oversized}, so a pathological client
    cannot force unbounded buffering or desynchronise the connection.

    {b Verbs.}  Requests are JSON objects with a ["verb"] field:

    - [{"verb":"ping"}] → [{"ok":true,"verb":"pong"}]
    - [{"verb":"health"}] → queue depth, in-flight count, worker
      restarts, uptime, draining flag
    - [{"verb":"stats"}] → health plus per-outcome counters and
      latency quantiles from the [serve.*] metric series
    - [{"verb":"drain"}] → initiate graceful drain (stop admitting,
      finish in-flight work)
    - [{"verb":"analyze","app":…,…}] → run the taint analysis; the
      reply is exactly one outcome row, an ["overloaded"] rejection
      carrying [retry_after_ms], or a ["draining"] rejection.

    The ["app"] payload is one of three shapes: [{"dir":PATH}] (an
    on-disk app directory), [{"gen":{"profile":…,"seed":…,"index":…}}]
    (a deterministic generated-corpus app), or an inline bundle
    [{"name":…,"manifest":XML,"layouts":[{"name":…,"xml":…}],
    "sources":[µJimple…]}].  Giving ["apps":[APP,…]] instead of
    ["app"] analyses the batch in one merged multi-app Scene (the
    inter-app collusion setting).  Optional analyze fields: ["id"]
    (echoed verbatim in the reply), ["deadline_ms"] (the request's
    wall-clock deadline), ["rules"] (only ["default"] is accepted:
    every request runs under the default sources/sinks, taint wrappers
    and native rules, and any other name is answered [bad-request]),
    ["strict"]
    (disable the default lenient frontend), and three analysis
    options under their {!Fd_core.Config.encode} keys: ["k"] (the
    access-path bound, [>= 1]), ["icc"] (the inter-component taint
    tier) and ["targeted"] (a list of sink signature patterns).

    {b Options.}  The daemon applies the options a request carries to
    its own base configuration with {!Fd_core.Config.decode}; an
    absent option keeps the base value.  An explicit value replaces
    the base value: ["icc":false] turns the tier off even on a daemon
    whose base has it on, and ["targeted":[]] asks for the full
    analysis even on a daemon started with [--targeted].  A value of
    the wrong type or ["k"] below 1 is answered [bad-request]. *)

exception Oversized of int
(** a frame declared more bytes than the reader's limit; the payload
    has been consumed, the connection is still usable *)

exception Closed
(** the peer hung up mid-frame (clean EOF between frames is reported
    as [None] from {!read_frame} instead) *)

val default_max_frame : int
(** 8 MiB *)

val read_frame : ?max_bytes:int -> Unix.file_descr -> Fd_obs.Json.t option
(** [read_frame fd] reads one frame; [None] on clean EOF.
    @raise Oversized when the declared length exceeds [max_bytes]
    (payload discarded);
    @raise Closed on EOF mid-frame;
    @raise Fd_obs.Json.Parse_error on a well-framed but malformed
    payload. *)

val write_frame : Unix.file_descr -> Fd_obs.Json.t -> unit
(** [write_frame fd v] writes one frame (handles short writes).
    @raise Unix.Unix_error when the peer is gone ([EPIPE]…). *)

(** {1 Typed requests} *)

type inline_app = {
  in_name : string;
  in_manifest : string;
  in_layouts : (string * string) list;
  in_sources : string list;  (** textual µJimple units *)
}

type app_spec =
  | App_dir of string
  | App_inline of inline_app
  | App_gen of { g_profile : Fd_appgen.Generator.profile; g_seed : int;
                 g_index : int }

val app_name : app_spec -> string
(** display name: directory basename, inline name, or [gen<i>] *)

type analyze = {
  rq_id : Fd_obs.Json.t option;  (** echoed verbatim when present *)
  rq_app : app_spec;
  rq_apps : app_spec list;
      (** additional apps (["apps":\[…\]] wire form): a non-empty
          list makes the request a batch analysed in one merged
          multi-app Scene — the inter-app collusion setting *)
  rq_deadline_ms : int option;
      (** the request's deadline; absent = the base config's
          [deadline_s] *)
  rq_strict : bool;  (** strict frontend (default: lenient) *)
  rq_options : (string * Fd_obs.Json.t) list;
      (** the analysis options the request sets, as [(key, value)]
          pairs of {!Fd_core.Config.encode}, in wire order; only the
          keys ["k"], ["icc"] and ["targeted"] travel, and a decoded
          request keeps nothing else *)
}

type request =
  | Ping
  | Health
  | Stats
  | Drain
  | Analyze of analyze

val request_of_json : Fd_obs.Json.t -> (request, string) result

val json_of_analyze : analyze -> Fd_obs.Json.t
(** the client-side encoder; [request_of_json] round-trips it *)

(** {1 Response builders} *)

val resp_ok :
  ?id:Fd_obs.Json.t -> (string * Fd_obs.Json.t) list -> Fd_obs.Json.t
(** [{"ok":true,("id":id,)…fields}] *)

val resp_error :
  ?id:Fd_obs.Json.t ->
  ?fields:(string * Fd_obs.Json.t) list ->
  code:string ->
  string ->
  Fd_obs.Json.t
(** [{"ok":false,("id":id,)"error":code,"message":msg,…fields}] *)
