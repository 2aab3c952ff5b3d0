(** Length-prefixed JSON framing and the typed request layer (see the
    .mli for the wire format). *)

module Json = Fd_obs.Json
module Gen = Fd_appgen.Generator

exception Oversized of int
exception Closed

let default_max_frame = 8 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* framing                                                             *)
(* ------------------------------------------------------------------ *)

let really_read fd buf ofs len =
  let rec go ofs len =
    if len > 0 then begin
      let n = Unix.read fd buf ofs len in
      if n = 0 then raise Closed;
      go (ofs + n) (len - n)
    end
  in
  go ofs len

let really_write fd buf ofs len =
  let rec go ofs len =
    if len > 0 then begin
      let n = Unix.write fd buf ofs len in
      go (ofs + n) (len - n)
    end
  in
  go ofs len

(* discard [len] payload bytes in bounded chunks so an oversized frame
   cannot make us allocate its declared size *)
let discard fd len =
  let chunk = Bytes.create 65536 in
  let rec go remaining =
    if remaining > 0 then begin
      let n = Unix.read fd chunk 0 (min remaining (Bytes.length chunk)) in
      if n = 0 then raise Closed;
      go (remaining - n)
    end
  in
  go len

let read_u32_be buf =
  let b i = Char.code (Bytes.get buf i) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let write_u32_be buf n =
  Bytes.set buf 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (n land 0xff))

let read_frame ?(max_bytes = default_max_frame) fd =
  let hdr = Bytes.create 4 in
  match Unix.read fd hdr 0 1 with
  | 0 -> None (* clean EOF between frames *)
  | _ ->
      really_read fd hdr 1 3;
      let len = read_u32_be hdr in
      if len > max_bytes then begin
        discard fd len;
        raise (Oversized len)
      end;
      let payload = Bytes.create len in
      really_read fd payload 0 len;
      Some (Json.parse_string (Bytes.unsafe_to_string payload))

let write_frame fd v =
  let s = Json.to_string v in
  let len = String.length s in
  let buf = Bytes.create (4 + len) in
  write_u32_be buf len;
  Bytes.blit_string s 0 buf 4 len;
  really_write fd buf 0 (4 + len)

(* ------------------------------------------------------------------ *)
(* typed requests                                                      *)
(* ------------------------------------------------------------------ *)

type inline_app = {
  in_name : string;
  in_manifest : string;
  in_layouts : (string * string) list;
  in_sources : string list;
}

type app_spec =
  | App_dir of string
  | App_inline of inline_app
  | App_gen of { g_profile : Gen.profile; g_seed : int; g_index : int }

let app_name = function
  | App_dir d -> Filename.basename d
  | App_inline a -> a.in_name
  | App_gen { g_index; _ } -> Printf.sprintf "gen%d" g_index

type analyze = {
  rq_id : Json.t option;
  rq_app : app_spec;
  rq_apps : app_spec list;
  rq_deadline_ms : int option;
  rq_strict : bool;
  rq_options : (string * Json.t) list;
}

(* the config options a request may set *)
let option_keys = [ "k"; "icc"; "targeted" ]

type request = Ping | Health | Stats | Drain | Analyze of analyze

let str = function Json.String s -> Some s | _ -> None
let int_ = function Json.Int i -> Some i | _ -> None

let member_str k v = Option.bind (Json.member k v) str
let member_int k v = Option.bind (Json.member k v) int_

let app_of_json v =
  match Json.member "dir" v with
  | Some (Json.String d) -> Ok (App_dir d)
  | Some _ -> Error "app.dir must be a string"
  | None -> (
      match Json.member "gen" v with
      | Some g -> (
          match
            (member_str "profile" g, member_int "seed" g, member_int "index" g)
          with
          | Some p, Some g_seed, Some g_index -> (
              match Gen.profile_of_string p with
              | Some g_profile -> Ok (App_gen { g_profile; g_seed; g_index })
              | None -> Error ("unknown gen profile: " ^ p))
          | _ -> Error "app.gen needs profile (play|malware|icc), seed, index")
      | None -> (
          match (member_str "name" v, member_str "manifest" v) with
          | Some name, Some manifest ->
              let layouts =
                match Json.member "layouts" v with
                | Some (Json.List ls) ->
                    List.filter_map
                      (fun l ->
                        match (member_str "name" l, member_str "xml" l) with
                        | Some n, Some x -> Some (n, x)
                        | _ -> None)
                      ls
                | _ -> []
              in
              let sources =
                match Json.member "sources" v with
                | Some (Json.List ss) -> List.filter_map str ss
                | _ -> []
              in
              Ok
                (App_inline
                   { in_name = name; in_manifest = manifest;
                     in_layouts = layouts; in_sources = sources })
          | _ ->
              Error
                "app must be {\"dir\":…}, {\"gen\":…} or an inline \
                 {\"name\":…,\"manifest\":…,\"sources\":[…]} bundle"))

let request_of_json v =
  match member_str "verb" v with
  | None -> Error "missing \"verb\""
  | Some "ping" -> Ok Ping
  | Some "health" -> Ok Health
  | Some "stats" -> Ok Stats
  | Some "drain" -> Ok Drain
  | Some "analyze" -> (
      (* "app": one spec, or "apps": a non-empty list — a batch
         analysed in one merged multi-app Scene *)
      let specs =
        match (Json.member "app" v, Json.member "apps" v) with
        | Some app, None -> (
            match app_of_json app with
            | Error e -> Error ("analyze: " ^ e)
            | Ok a -> Ok [ a ])
        | None, Some (Json.List apps) ->
            List.fold_right
              (fun app acc ->
                match (acc, app_of_json app) with
                | Error e, _ -> Error e
                | _, Error e -> Error ("analyze: " ^ e)
                | Ok rest, Ok a -> Ok (a :: rest))
              apps (Ok [])
        | None, Some _ -> Error "analyze: \"apps\" must be a list"
        | Some _, Some _ -> Error "analyze: give \"app\" or \"apps\", not both"
        | None, None -> Error "analyze: missing \"app\" (or \"apps\")"
      in
      (* every request runs under the default rule sets; naming any
         other is refused rather than silently ignored *)
      match (specs, member_str "rules" v) with
      | Error e, _ -> Error e
      | Ok [], _ -> Error "analyze: \"apps\" must be non-empty"
      | _, Some rules when rules <> "default" ->
          Error (Printf.sprintf "unknown rule-set %S" rules)
      | Ok (rq_app :: rq_apps), _ ->
          Ok
            (Analyze
               {
                 rq_id = Json.member "id" v;
                 rq_app;
                 rq_apps;
                 rq_deadline_ms = member_int "deadline_ms" v;
                 rq_strict = Json.member "strict" v = Some (Json.Bool true);
                 rq_options =
                   (match v with
                   | Json.Obj members ->
                       List.filter
                         (fun (key, _) -> List.mem key option_keys)
                         members
                   | _ -> []);
               }))
  | Some other -> Error ("unknown verb: " ^ other)

let json_of_app = function
  | App_dir d -> Json.Obj [ ("dir", Json.String d) ]
  | App_gen { g_profile; g_seed; g_index } ->
      Json.Obj
        [
          ( "gen",
            Json.Obj
              [
                ("profile", Json.String (Gen.string_of_profile g_profile));
                ("seed", Json.Int g_seed);
                ("index", Json.Int g_index);
              ] );
        ]
  | App_inline a ->
      Json.Obj
        [
          ("name", Json.String a.in_name);
          ("manifest", Json.String a.in_manifest);
          ( "layouts",
            Json.List
              (List.map
                 (fun (n, x) ->
                   Json.Obj
                     [ ("name", Json.String n); ("xml", Json.String x) ])
                 a.in_layouts) );
          ("sources", Json.List (List.map (fun s -> Json.String s) a.in_sources));
        ]

let json_of_analyze a =
  Json.Obj
    ((("verb", Json.String "analyze")
      :: (match a.rq_id with Some id -> [ ("id", id) ] | None -> []))
    @ (match a.rq_apps with
      | [] -> [ ("app", json_of_app a.rq_app) ]
      | more ->
          [ ("apps",
             Json.List (List.map json_of_app (a.rq_app :: more))) ])
    @ (match a.rq_deadline_ms with
      | Some ms -> [ ("deadline_ms", Json.Int ms) ]
      | None -> [])
    @ (if a.rq_strict then [ ("strict", Json.Bool true) ] else [])
    @ a.rq_options)

(* ------------------------------------------------------------------ *)
(* response builders                                                   *)
(* ------------------------------------------------------------------ *)

let resp_ok ?id fields =
  Json.Obj
    ((("ok", Json.Bool true)
      :: (match id with Some id -> [ ("id", id) ] | None -> []))
    @ fields)

let resp_error ?id ?(fields = []) ~code msg =
  Json.Obj
    ((("ok", Json.Bool false)
      :: (match id with Some id -> [ ("id", id) ] | None -> []))
    @ [ ("error", Json.String code); ("message", Json.String msg) ]
    @ fields)
