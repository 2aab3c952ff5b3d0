(** Sources and sinks.

    FlowDroid is configured with externally defined source/sink lists
    (the SuSi project's output, Section 5).  This module implements the
    same idea: a textual configuration format, a parser for it, and the
    default Android list used throughout the benchmarks.

    Three kinds of sources exist:
    - *return sources*: calling the method taints its return value
      (e.g. [TelephonyManager.getDeviceId()]);
    - *parameter sources*: the framework passes sensitive data into a
      callback's parameter (e.g. [onLocationChanged(Location)]);
    - *UI sources*: values obtained from sensitive layout controls —
      these are not listed here but detected via the layout model (see
      {!Layout} and the engine's [findViewById] handling).

    Sinks are methods whose arguments (or receiver) must not receive
    tainted data. *)

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

let string_of_category = function
  | Imei -> "IMEI"
  | Location -> "LOCATION"
  | Password -> "PASSWORD"
  | Sms -> "SMS"
  | Log -> "LOG"
  | Network -> "NETWORK"
  | Prefs -> "PREFS"
  | Intent_data -> "INTENT"
  | File -> "FILE"
  | Contact -> "CONTACT"
  | Generic -> "GENERIC"

let category_of_string = function
  | "IMEI" -> Imei
  | "LOCATION" -> Location
  | "PASSWORD" -> Password
  | "SMS" -> Sms
  | "LOG" -> Log
  | "NETWORK" -> Network
  | "PREFS" -> Prefs
  | "INTENT" -> Intent_data
  | "FILE" -> File
  | "CONTACT" -> Contact
  | _ -> Generic

type def =
  | Return_source of { cls : string; mname : string; cat : category }
      (** the return value of [cls#mname] is a source *)
  | Param_source of { cls : string; mname : string; param : int; cat : category }
      (** parameter [param] of the callback [cls#mname] is tainted when
          the framework invokes it *)
  | Sink of { cls : string; mname : string; cat : category }
      (** any tainted argument flowing into [cls#mname] is a leak *)

type t = {
  ret_sources : (string * string, category) Hashtbl.t;
  param_sources : (string * string, int list * category) Hashtbl.t;
  sinks : (string * string, category) Hashtbl.t;
}

let create defs =
  let t =
    {
      ret_sources = Hashtbl.create 31;
      param_sources = Hashtbl.create 7;
      sinks = Hashtbl.create 31;
    }
  in
  List.iter
    (function
      | Return_source { cls; mname; cat } ->
          Hashtbl.replace t.ret_sources (cls, mname) cat
      | Param_source { cls; mname; param; cat } ->
          let prev =
            match Hashtbl.find_opt t.param_sources (cls, mname) with
            | Some (ps, _) -> ps
            | None -> []
          in
          Hashtbl.replace t.param_sources (cls, mname) (param :: prev, cat)
      | Sink { cls; mname; cat } -> Hashtbl.replace t.sinks (cls, mname) cat)
    defs;
  t

(** [is_return_source t ~cls ~mname] checks a call target against the
    return-source list. *)
let is_return_source t ~cls ~mname = Hashtbl.find_opt t.ret_sources (cls, mname)

(** [param_source t ~cls ~mname] is the tainted parameter indices of a
    callback, with the category. *)
let param_source t ~cls ~mname = Hashtbl.find_opt t.param_sources (cls, mname)

(** [is_sink t ~cls ~mname] checks a call target against the sink
    list. *)
let is_sink t ~cls ~mname = Hashtbl.find_opt t.sinks (cls, mname)

(** [digest t] is a stable MD5 of a canonical rendering of the
    source/sink lists: sorted lines, independent of insertion order
    and hash-table layout.  The persistent summary store folds it into
    its analysis-config key. *)
let digest t =
  let lines = ref [] in
  Hashtbl.iter
    (fun (cls, mname) cat ->
      lines :=
        Printf.sprintf "ret %s %s %s" cls mname (string_of_category cat)
        :: !lines)
    t.ret_sources;
  Hashtbl.iter
    (fun (cls, mname) (params, cat) ->
      lines :=
        Printf.sprintf "param %s %s [%s] %s" cls mname
          (String.concat ";"
             (List.map string_of_int (List.sort compare params)))
          (string_of_category cat)
        :: !lines)
    t.param_sources;
  Hashtbl.iter
    (fun (cls, mname) cat ->
      lines :=
        Printf.sprintf "sink %s %s %s" cls mname (string_of_category cat)
        :: !lines)
    t.sinks;
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare !lines)))

(* ------------------------------------------------------------------ *)
(* Textual format                                                      *)
(* ------------------------------------------------------------------ *)

exception Bad_line of int * string

(* A line is one of (whitespace-insensitive; '%' starts a comment):
     <cls: ret mname(params)> -> _SOURCE_ {CAT}
     <cls: ret mname(params)> paramN -> _SOURCE_ {CAT}
     <cls: ret mname(params)> -> _SINK_ {CAT}
   The return and parameter types inside the signature are accepted and
   ignored: matching is by class and method name, as documented in
   DESIGN.md. *)
let parse_line lineno line =
  let line =
    match String.index_opt line '%' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then None
  else begin
    let fail msg = raise (Bad_line (lineno, msg)) in
    (* extract <...> *)
    if line.[0] <> '<' then fail "expected a <signature>";
    let close =
      match String.index_opt line '>' with
      | Some i -> i
      | None -> fail "unterminated <signature>"
    in
    let sig_ = String.sub line 1 (close - 1) in
    let rest = String.trim (String.sub line (close + 1) (String.length line - close - 1)) in
    (* signature: cls: ret mname(...) *)
    let cls, after_cls =
      match String.index_opt sig_ ':' with
      | Some i ->
          ( String.trim (String.sub sig_ 0 i),
            String.trim (String.sub sig_ (i + 1) (String.length sig_ - i - 1)) )
      | None -> fail "signature lacks ':'"
    in
    let before_paren =
      match String.index_opt after_cls '(' with
      | Some i -> String.trim (String.sub after_cls 0 i)
      | None -> fail "signature lacks '('"
    in
    let mname =
      match String.rindex_opt before_paren ' ' with
      | Some i ->
          String.sub before_paren (i + 1) (String.length before_paren - i - 1)
      | None -> before_paren
    in
    (* rest: [paramN] -> _SOURCE_|_SINK_ [{CAT}] *)
    let param, rest =
      if String.length rest > 5 && String.sub rest 0 5 = "param" then begin
        match String.index_opt rest ' ' with
        | Some i ->
            let n =
              try int_of_string (String.sub rest 5 (i - 5))
              with _ -> fail "bad param index"
            in
            (Some n, String.trim (String.sub rest i (String.length rest - i)))
        | None -> fail "incomplete param-source line"
      end
      else (None, rest)
    in
    let rest =
      if String.length rest >= 2 && String.sub rest 0 2 = "->" then
        String.trim (String.sub rest 2 (String.length rest - 2))
      else fail "expected '->'"
    in
    let kind, rest =
      if String.length rest >= 9 && String.sub rest 0 9 = "_SOURCE_ " then
        (`Source, String.trim (String.sub rest 9 (String.length rest - 9)))
      else if rest = "_SOURCE_" then (`Source, "")
      else if String.length rest >= 7 && String.sub rest 0 7 = "_SINK_ " then
        (`Sink, String.trim (String.sub rest 7 (String.length rest - 7)))
      else if rest = "_SINK_" then (`Sink, "")
      else fail "expected _SOURCE_ or _SINK_"
    in
    let cat =
      let r = String.trim rest in
      if r = "" then Generic
      else if r.[0] = '{' && r.[String.length r - 1] = '}' then
        category_of_string (String.trim (String.sub r 1 (String.length r - 2)))
      else fail "expected {CATEGORY}"
    in
    match (kind, param) with
    | `Source, None -> Some (Return_source { cls; mname; cat })
    | `Source, Some p -> Some (Param_source { cls; mname; param = p; cat })
    | `Sink, None -> Some (Sink { cls; mname; cat })
    | `Sink, Some _ -> fail "parameter annotations are only valid on sources"
  end

(** [parse_string src] parses a whole configuration file.
    @raise Bad_line with the 1-based line number on malformed lines. *)
let parse_string src =
  String.split_on_char '\n' src
  |> List.mapi (fun i l -> parse_line (i + 1) l)
  |> List.filter_map Fun.id

(** [of_string src] is [create (parse_string src)]. *)
let of_string src = create (parse_string src)

(* ------------------------------------------------------------------ *)
(* Default Android configuration                                       *)
(* ------------------------------------------------------------------ *)

(** The default source/sink configuration, in the textual format (so
    the format itself is exercised on every analysis run). *)
let default_config =
  {|% --- Sources: device identifiers -------------------------------------
<android.telephony.TelephonyManager: java.lang.String getDeviceId()> -> _SOURCE_ {IMEI}
<android.telephony.TelephonyManager: java.lang.String getSubscriberId()> -> _SOURCE_ {IMEI}
<android.telephony.TelephonyManager: java.lang.String getSimSerialNumber()> -> _SOURCE_ {IMEI}
<android.telephony.TelephonyManager: java.lang.String getLine1Number()> -> _SOURCE_ {IMEI}
% --- Sources: location ------------------------------------------------
<android.location.LocationManager: android.location.Location getLastKnownLocation(java.lang.String)> -> _SOURCE_ {LOCATION}
% NB: Location.getLatitude/getLongitude are deliberately NOT separate
% sources: location objects reach the app either from
% getLastKnownLocation or as an onLocationChanged parameter (both
% modelled below), and the accessors then propagate the taint through
% the default library model.  Listing them too would double-count every
% location leak.
% --- Sources: callback parameters -------------------------------------
<android.location.LocationListener: void onLocationChanged(android.location.Location)> param0 -> _SOURCE_ {LOCATION}
<android.content.BroadcastReceiver: void onReceive(android.content.Context,android.content.Intent)> param1 -> _SOURCE_ {INTENT}
% --- Sources: inter-component communication ---------------------------
<android.content.Intent: java.lang.String getStringExtra(java.lang.String)> -> _SOURCE_ {INTENT}
<android.content.Intent: android.os.Bundle getExtras()> -> _SOURCE_ {INTENT}
<android.os.Bundle: java.lang.String getString(java.lang.String)> -> _SOURCE_ {INTENT}
% --- Sources: accounts / contacts -------------------------------------
<android.accounts.AccountManager: java.lang.String getPassword(android.accounts.Account)> -> _SOURCE_ {PASSWORD}
<android.provider.ContactsContract: java.lang.Object query(java.lang.Object)> -> _SOURCE_ {CONTACT}
% --- Sinks: SMS --------------------------------------------------------
<android.telephony.SmsManager: void sendTextMessage(java.lang.String,java.lang.String,java.lang.String,android.app.PendingIntent,android.app.PendingIntent)> -> _SINK_ {SMS}
<android.telephony.SmsManager: void sendDataMessage(java.lang.String,java.lang.String,short,byte[],android.app.PendingIntent,android.app.PendingIntent)> -> _SINK_ {SMS}
% --- Sinks: logging ----------------------------------------------------
<android.util.Log: int d(java.lang.String,java.lang.String)> -> _SINK_ {LOG}
<android.util.Log: int e(java.lang.String,java.lang.String)> -> _SINK_ {LOG}
<android.util.Log: int i(java.lang.String,java.lang.String)> -> _SINK_ {LOG}
<android.util.Log: int v(java.lang.String,java.lang.String)> -> _SINK_ {LOG}
<android.util.Log: int w(java.lang.String,java.lang.String)> -> _SINK_ {LOG}
% --- Sinks: network -----------------------------------------------------
<java.io.OutputStream: void write(byte[])> -> _SINK_ {NETWORK}
<java.net.URL: java.net.URLConnection openConnection()> -> _SINK_ {NETWORK}
<java.net.HttpURLConnection: void sendRequest(java.lang.String)> -> _SINK_ {NETWORK}
<org.apache.http.client.HttpClient: org.apache.http.HttpResponse execute(org.apache.http.client.methods.HttpUriRequest)> -> _SINK_ {NETWORK}
% --- Sinks: preferences and files ---------------------------------------
<android.content.SharedPreferences$Editor: android.content.SharedPreferences$Editor putString(java.lang.String,java.lang.String)> -> _SINK_ {PREFS}
<java.io.FileOutputStream: void write(byte[])> -> _SINK_ {FILE}
% --- Sinks: inter-component communication -------------------------------
<android.content.Context: void sendBroadcast(android.content.Intent)> -> _SINK_ {INTENT}
<android.content.ContextWrapper: void sendBroadcast(android.content.Intent)> -> _SINK_ {INTENT}
<android.app.Activity: void startActivity(android.content.Intent)> -> _SINK_ {INTENT}
% NB: Intent.putExtra and Activity.setResult are deliberately NOT sinks:
% putExtra taints the intent object (taint-wrapper rule) and only the
% actual *sending* of an intent is a sink.  A value stored via setResult
% and handed back by the framework is therefore missed -- exactly the
% behaviour the paper reports for DroidBench's IntentSink1.
|}

(** [default ()] is the parsed default configuration.  The parse is
    shared: definitions are read-only after construction and requested
    once per analysed app, possibly from several domains at once, so the
    first force is serialised (see {!Rules.default_wrappers}). *)
let default =
  let memo = lazy (of_string default_config) and lock = Mutex.create () in
  fun () -> Mutex.protect lock (fun () -> Lazy.force memo)
