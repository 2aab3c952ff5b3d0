(** Command-line client for the serve daemon.

    [flowdroid_client ping|health|stats|drain] for control verbs;
    [flowdroid_client analyze --dir APP] (or [--gen profile:seed:index])
    submits an analysis and prints the JSON reply.  Exit codes: 0 on
    an ["ok":true] reply, 1 on a daemon-reported error (overloaded,
    failed, bad request…), 2 on usage or connection errors. *)

open Cmdliner
module Cli = Fd_cli.Cli
module Json = Fd_obs.Json
module Client = Fd_serve.Client
module Protocol = Fd_serve.Protocol

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/flowdroid.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket.")

let verb_arg =
  Arg.(
    required
    & pos 0 (some (enum
        [ ("ping", `Ping); ("health", `Health); ("stats", `Stats);
          ("drain", `Drain); ("analyze", `Analyze) ])) None
    & info [] ~docv:"VERB" ~doc:"ping, health, stats, drain or analyze.")

let dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dir" ] ~docv:"APP" ~doc:"App directory to analyze.")

let apk_arg =
  Arg.(
    value & opt_all string []
    & info [ "apk" ] ~docv:"APP"
        ~doc:"App directory (repeatable).  Two or more apps in total \
              make the request a batch analysed in one merged \
              multi-app Scene — with $(b,--icc), the inter-app \
              collusion setting.")

let gen_arg =
  Arg.(
    value & opt_all string []
    & info [ "gen" ] ~docv:"PROFILE:SEED:INDEX"
        ~doc:"Generated-corpus app, e.g. play:2014:7 (repeatable; \
              profiles: play, malware, icc).")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~doc:"Per-request deadline override.")

let k =
  Term.(
    const
      (Option.fold ~none:Fun.id ~some:(fun k c ->
           { c with Fd_core.Config.max_access_path = k }))
    $ Arg.(
        value
        & opt (some (Cli.int_at_least 1)) None
        & info [ "k" ] ~doc:"Max access-path length override (>= 1)."))

let id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "id" ] ~doc:"Request id, echoed in the reply.")

let strict_arg =
  Arg.(value & flag & info [ "strict" ] ~doc:"Strict frontend parsing.")

let parse_gen s =
  match String.split_on_char ':' s with
  | [ profile; seed; index ] -> (
      match
        ( Fd_appgen.Generator.profile_of_string profile,
          int_of_string_opt seed,
          int_of_string_opt index )
      with
      | Some g_profile, Some g_seed, Some g_index ->
          Ok (Protocol.App_gen { g_profile; g_seed; g_index })
      | _ -> Error ("bad --gen spec: " ^ s))
  | _ -> Error ("bad --gen spec: " ^ s)

(* the options the flags moved away from the default, under their
   canonical keys: the daemon applies them to its own base config *)
let changed_options config =
  List.filter_map
    (fun ((f : Fd_core.Config.field), (d : Fd_core.Config.field)) ->
      if Json.equal f.value d.value then None else Some (f.key, f.value))
    (List.combine
       (Fd_core.Config.encode config)
       (Fd_core.Config.encode Fd_core.Config.default))

let run socket verb dir apks gens deadline_ms id strict config =
  let with_client f =
    match Client.connect socket with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "flowdroid_client: cannot reach %s: %s\n%!" socket
          (Unix.error_message e);
        2
    | c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  in
  let print_reply reply =
    print_endline (Json.to_string ~indent:2 reply);
    if Json.member "ok" reply = Some (Json.Bool true) then 0 else 1
  in
  match verb with
  | `Ping ->
      with_client (fun c ->
          if Client.ping c then begin
            print_endline "pong";
            0
          end
          else begin
            prerr_endline "flowdroid_client: no pong";
            1
          end)
  | `Health -> with_client (fun c -> print_reply (Client.health c))
  | `Stats -> with_client (fun c -> print_reply (Client.stats c))
  | `Drain -> with_client (fun c -> print_reply (Client.drain c))
  | `Analyze -> (
      let specs =
        let dirs =
          (match dir with Some d -> [ d ] | None -> []) @ apks
        in
        match
          List.fold_right
            (fun g acc ->
              match (acc, parse_gen g) with
              | Error e, _ -> Error e
              | _, Error e -> Error e
              | Ok rest, Ok a -> Ok (a :: rest))
            gens (Ok [])
        with
        | Error e -> Error e
        | Ok gspecs ->
            Ok (List.map (fun d -> Protocol.App_dir d) dirs @ gspecs)
      in
      match specs with
      | Error msg ->
          Printf.eprintf "flowdroid_client: %s\n%!" msg;
          2
      | Ok [] ->
          Printf.eprintf
            "flowdroid_client: analyze needs at least one of --dir, --apk \
             or --gen\n%!";
          2
      | Ok (rq_app :: rq_apps) ->
          with_client (fun c ->
              print_reply
                (Client.analyze c
                   {
                     Protocol.rq_id =
                       Option.map (fun s -> Json.String s) id;
                     rq_app;
                     rq_apps;
                     rq_deadline_ms = deadline_ms;
                     rq_strict = strict;
                     rq_options = changed_options config;
                   })))

let cmd =
  Cmd.v
    (Cmd.info "flowdroid_client" ~doc:"Client for the flowdroid_serve daemon")
    Term.(
      const run $ socket_arg $ verb_arg $ dir_arg $ apk_arg $ gen_arg
      $ deadline_arg $ id_arg $ strict_arg
      $ Cli.config [ k; Cli.icc; Cli.targeted ])

let () = exit (Cmd.eval' cmd)
