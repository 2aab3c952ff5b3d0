(** Sources and sinks: the SuSi-style textual configuration
    (Section 5: FlowDroid "is configured with sources and sinks
    inferred by our SuSi project ... The tool supports a simple textual
    file format").

    Line format ('%' comments):
    {v
    <cls: ret name(params)> -> _SOURCE_ {CATEGORY}
    <cls: ret name(params)> paramN -> _SOURCE_ {CATEGORY}
    <cls: ret name(params)> -> _SINK_ {CATEGORY}
    v}
    Matching is by class and method name (see DESIGN.md); parameter and
    return types inside the signature are accepted and ignored. *)

type category =
  | Imei
  | Location
  | Password
  | Sms
  | Log
  | Network
  | Prefs
  | Intent_data  (** inter-component communication modelled as src/sink *)
  | File
  | Contact
  | Generic

val string_of_category : category -> string
val category_of_string : string -> category

type def =
  | Return_source of { cls : string; mname : string; cat : category }
  | Param_source of { cls : string; mname : string; param : int; cat : category }
  | Sink of { cls : string; mname : string; cat : category }

type t

val create : def list -> t

val is_return_source : t -> cls:string -> mname:string -> category option
val param_source : t -> cls:string -> mname:string -> (int list * category) option
val is_sink : t -> cls:string -> mname:string -> category option

val digest : t -> string
(** stable MD5 hex of a canonical, sorted rendering of the
    source/sink lists — part of the persistent summary store's
    analysis-config key *)

exception Bad_line of int * string

val parse_string : string -> def list
(** @raise Bad_line with the 1-based line number on malformed lines *)

val of_string : string -> t

val default : unit -> t
