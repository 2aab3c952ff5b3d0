(* The shared command-line flags: one definition per flag, so every
   executable that accepts a flag parses, validates and documents it
   the same way. *)

open Cmdliner
module Config = Fd_core.Config

type edit = Config.t -> Config.t

let config edits =
  List.fold_left
    (fun acc edit -> Term.(const (fun c f -> f c) $ acc $ edit))
    (Term.const Config.default) edits

let env = Cmd.Env.info

let precision =
  let passes =
    Arg.conv ~docv:"PASSES"
      ( (fun s ->
          Result.map_error (fun m -> `Msg m) (Config.precision_of_string s)),
        fun ppf p -> Format.pp_print_string ppf (Config.string_of_precision p)
      )
  in
  Term.(
    const (fun precision c -> { c with Config.precision })
    $ Arg.(
        value
        & opt passes Config.no_precision
        & info [ "precision" ] ~env:(env "FLOWDROID_PRECISION")
            ~doc:
              "Opt-in precision passes: $(b,all), $(b,none), or a \
               comma-separated subset of $(b,must-alias) (strong updates \
               through must-aliased bases), $(b,array-index) \
               (constant-index array cells), $(b,reflection) \
               (constant-string reflective call edges) and $(b,clinit) \
               (first-use-site class-initialiser placement).  All passes \
               default to off; the default output is unchanged."))

(* one value may carry several comma-separated patterns (the env-var
   form); blanks are dropped *)
let sig_list =
  Arg.conv ~docv:"SIG"
    ( (fun s ->
        Ok
          (String.split_on_char ',' s |> List.map String.trim
          |> List.filter (fun p -> p <> ""))),
      Format.(
        pp_print_list
          ~pp_sep:(fun ppf () -> pp_print_char ppf ',')
          pp_print_string) )

let targeted_term ~with_env =
  Term.(
    const (fun specs c -> { c with Config.targeted = List.concat specs })
    $ Arg.(
        value & opt_all sig_list []
        & info [ "targeted" ] ~docv:"SIG"
            ?env:(if with_env then Some (env "FLOWDROID_TARGETED") else None)
            ~doc:
              "Demand-driven targeted mode: only analyse flows into sinks \
               matching $(docv) (substring of \"Class.method\", supertypes \
               included; repeatable, or comma-separated).  Slices backward \
               from matching sink sites and extends the call graph only \
               along the slice."))

let targeted = targeted_term ~with_env:true
let targeted_no_env = targeted_term ~with_env:false

let icc =
  Term.(
    const (fun icc c -> { c with Config.icc })
    $ Arg.(
        value & flag
        & info [ "icc" ] ~env:(env "FLOWDROID_ICC")
            ~doc:
              "Inter-component taint tracking: resolve intent sends \
               against the manifest's intent filters (Android's \
               intent-resolution rules, exported gate included) and stitch \
               sending-side flows to reception-side flows, per extra key \
               where the constant analysis can separate them.  Off by \
               default; with the flag unset the output is byte-identical \
               to a build without this tier."))

let deadline =
  Term.(
    const (fun deadline_s c -> { c with Config.deadline_s })
    $ Arg.(
        value
        & opt (some float) None
        & info [ "deadline" ] ~docv:"SECS"
            ~doc:
              "Wall-clock deadline for each analysis run; on expiry the \
               solver stops cooperatively and the partial results are \
               reported with outcome deadline-exceeded."))

let summary_store =
  Term.(
    const (fun dir c ->
        let dir = match dir with Some "" -> None | d -> d in
        if dir <> None then Fd_store.Store.install ();
        { c with Config.summary_store = dir })
    $ Arg.(
        value
        & opt (some string) None
        & info [ "summary-store" ] ~docv:"DIR"
            ~env:(env "FLOWDROID_SUMMARY_STORE")
            ~doc:
              "Persistent cross-app summary store: reuse end summaries of \
               methods whose code digest and analysis configuration match \
               a previous run, and persist freshly computed ones to \
               $(docv).  Results are byte-identical with the store hot, \
               cold or off."))

let provenance =
  Term.(
    const (fun provenance c -> { c with Config.provenance })
    $ Arg.(
        value & flag
        & info [ "provenance" ]
            ~doc:
              "Record provenance edges during solving so each reported \
               flow carries a witness path.  Off by default; when off the \
               solver output is byte-identical to a build without this \
               feature."))

let int_at_least n =
  Arg.conv ~docv:"N"
    ( (fun s ->
        match int_of_string_opt s with
        | Some v when v >= n -> Ok v
        | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d" n))),
      Format.pp_print_int )

let jobs =
  Arg.(
    value
    & opt (int_at_least 1) 1
    & info [ "jobs" ] ~docv:"N" ~env:(env "FLOWDROID_JOBS")
        ~doc:
          "Fan the per-app loop out over $(docv) domains; the output is \
           bit-identical at any job count.")

type sinks = {
  stats_json : string option;
  trace_out : string option;
  profile_out : string option;
}

let stats_json =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write the observability snapshot (ifds.*, bidi.*, cg.*, \
           frontend.* metrics and per-phase durations) as JSON to $(docv) \
           (\"-\" = stdout).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event file of the pipeline phases to \
           $(docv) (\"-\" = stdout); open it in chrome://tracing or \
           Perfetto.")

let profile_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Profile the solver per method and write a collapsed-stack file \
           to $(docv) (feed it to flamegraph.pl; \"-\" = stdout).  Also \
           adds a $(b,profile) hot-method table to --stats-json.")

let sinks =
  Term.(
    const (fun stats_json trace_out profile_out ->
        { stats_json; trace_out; profile_out })
    $ stats_json $ trace_out $ profile_out)

let sinks_no_profile =
  Term.(
    const (fun stats_json trace_out ->
        { stats_json; trace_out; profile_out = None })
    $ stats_json $ trace_out)

let profile s c = { c with Config.profile = s.profile_out <> None }

let write_sinks ?(extra = []) s =
  let ok = ref true in
  let write what = function
    | None -> ()
    | Some path -> (
        try
          what ~path;
          if path <> "-" then Printf.eprintf "wrote %s\n" path
        with Sys_error msg ->
          Printf.eprintf "error: %s\n" msg;
          ok := false)
  in
  write
    (fun ~path ->
      let extra =
        if s.profile_out = None then extra
        else extra @ [ ("profile", Fd_obs.Profile.to_json ()) ]
      in
      Fd_obs.Export.write_stats_json ~extra ~path ())
    s.stats_json;
  write Fd_obs.Profile.write_collapsed s.profile_out;
  write Fd_obs.Export.write_chrome_trace s.trace_out;
  !ok

let drain_store_diags () =
  List.iter
    (fun (d : Fd_resilience.Diag.t) ->
      Printf.eprintf "summary-store: %s\n" d.Fd_resilience.Diag.d_msg)
    (Fd_store.Store.drain_diags ())

let cancel_on_signals () =
  let h = Sys.Signal_handle (fun _ -> Fd_resilience.Budget.cancel_all ()) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h
