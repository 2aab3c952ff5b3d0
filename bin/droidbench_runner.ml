(* Regenerates Table 1: DROIDBENCH results for FlowDroid and the two
   simulated comparators.  [--help] lists the options.

   SIGINT/SIGTERM cancel the campaign cooperatively: in-flight solves
   stop with outcome cancelled, the partial table still prints, and
   the process exits 4. *)

open Cmdliner
module Cli = Fd_cli.Cli

let app_name =
  Arg.(
    value
    & opt (some string) None
    & info [ "app" ] ~docv:"NAME"
        ~doc:"Run FlowDroid on the benchmark case $(docv) only.")

let dump_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump" ] ~docv:"DIR"
        ~doc:
          "Write the selected app (or every app) to $(docv) as an on-disk \
           app directory usable with flowdroid_cli, and exit.")

let show_outcomes =
  Arg.(
    value & flag
    & info [ "outcomes" ]
        ~doc:"Print per-app termination states after the table.")

let chaos_rate =
  Arg.(
    value
    & opt (some float) None
    & info [ "chaos-rate" ] ~docv:"P"
        ~doc:
          "Fault-injection smoke run: corrupt each app's µJimple at rate \
           $(docv), inject solver faults at rate $(docv), analyse \
           leniently under the degradation ladder, and report per-app \
           outcomes (exit 1 if any exception escapes the barrier).")

let chaos_seed =
  Arg.(
    value & opt int 20140609
    & info [ "chaos-seed" ] ~docv:"N" ~doc:"PRNG seed for --chaos-rate.")

(* mention precision only when a pass is on: default output unchanged *)
let precision_note (config : Fd_core.Config.t) =
  let p = config.Fd_core.Config.precision in
  if Fd_core.Config.precision_enabled p then
    Printf.sprintf ", precision: %s" (Fd_core.Config.string_of_precision p)
  else ""

(* write an in-memory APK as the on-disk app-directory layout
   flowdroid_cli consumes *)
let dump_app dir (apk : Fd_frontend.Apk.t) =
  let root = Filename.concat dir apk.Fd_frontend.Apk.apk_name in
  Fd_frontend.Apk.to_dir root apk;
  Printf.printf "dumped %s\n" root

let find_app name =
  match Fd_droidbench.Suite.find name with
  | Some app -> app
  | None ->
      Printf.eprintf "error: no DroidBench case named %S\n" name;
      exit 1

let run_one ~config (app : Fd_droidbench.Bench_app.t) =
  (* fresh observability state per app: without this, metrics and
     phase durations from a previous app bleed into this app's
     --stats-json / --trace-out snapshot *)
  Fd_obs.Metrics.reset ();
  Fd_obs.Trace.reset ();
  Fd_obs.Profile.reset ();
  let result =
    Fd_core.Infoflow.analyze_apk ~config
      app.Fd_droidbench.Bench_app.app_apk
  in
  Printf.printf "%s: %d flow(s), %d propagations%s\n"
    app.Fd_droidbench.Bench_app.app_name
    (List.length result.Fd_core.Infoflow.r_findings)
    result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_propagations
    (precision_note config);
  let o = result.Fd_core.Infoflow.r_stats.Fd_core.Infoflow.st_outcome in
  if not (Fd_resilience.Outcome.is_complete o) then
    Printf.printf "outcome: %s\n" (Fd_resilience.Outcome.to_string o)

(* whether a flight-recorder dump names at least one solver event (the
   vocabulary of [Bidi.post_mortem]) *)
let has_solver_event msg =
  let contains sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
    in
    go 0
  in
  List.exists contains
    [ "seed "; "fw.pop "; "bw.pop "; "call-edge "; "return-edge " ]

(* --chaos-rate: the fault-injection smoke run.  Each app's µJimple is
   re-rendered through the pretty-printer, corrupted at rate P, parsed
   leniently, and analysed under the degradation ladder with
   solver-step faults injected at rate P.  Everything runs under the
   crash barrier: an escaped exception is the only failure mode. *)
let run_chaos ~config ~seed rate =
  let chaos = Fd_resilience.Chaos.create ~seed ~rate in
  let escaped = ref 0 in
  let dist = Hashtbl.create 7 in
  let bump key =
    Hashtbl.replace dist key (1 + Option.value (Hashtbl.find_opt dist key) ~default:0)
  in
  List.iter
    (fun (app : Fd_droidbench.Bench_app.t) ->
      let apk = app.Fd_droidbench.Bench_app.app_apk in
      let label = app.Fd_droidbench.Bench_app.app_name in
      (* no per-app registry reset: the chaos loop happens to be
         sequential today, but a global reset is unsafe the moment the
         loop fans out ([Fd_util.Pool]); nothing in this loop reads
         the registry *)
      match
        Fd_resilience.Barrier.protect ~label (fun () ->
            let sources =
              List.map
                (fun cls ->
                  Fd_resilience.Chaos.corrupt_string chaos
                    (Fd_ir.Pretty.class_to_string cls))
                apk.Fd_frontend.Apk.apk_classes
            in
            let corrupted =
              Fd_frontend.Apk.make_text ~mode:`Lenient label
                ~manifest:apk.Fd_frontend.Apk.apk_manifest
                ~layouts:apk.Fd_frontend.Apk.apk_layouts sources
            in
            Fd_core.Infoflow.analyze_with_fallback ~config ~mode:`Lenient
              ~chaos [ corrupted ])
      with
      | Ok fb ->
          let c =
            Fd_core.Infoflow.string_of_completeness
              fb.Fd_core.Infoflow.fb_completeness
          in
          bump c;
          let diags =
            fb.Fd_core.Infoflow.fb_result.Fd_core.Infoflow.r_diags
          in
          (* every degraded/partial outcome must carry a post-mortem
             with at least one solver event: surface the
             flight-recorder dump count so the CI gate (and a reader)
             can spot a silent degradation or an empty dump *)
          let flight =
            match fb.Fd_core.Infoflow.fb_completeness with
            | Fd_core.Infoflow.Precise -> ""
            | Fd_core.Infoflow.Degraded _ | Fd_core.Infoflow.Partial _ ->
                let dumps =
                  List.filter_map
                    (fun (d : Fd_resilience.Diag.t) ->
                      if d.Fd_resilience.Diag.d_file = "flight-recorder" then
                        Some d.Fd_resilience.Diag.d_msg
                      else None)
                    diags
                in
                if dumps = [] then ", flight=MISSING"
                else if not (List.exists has_solver_event dumps) then
                  ", flight=EMPTY"
                else Printf.sprintf ", flight=%d" (List.length dumps)
          in
          Printf.printf "%-28s %-22s %d flow(s), %d diag(s)%s\n" label c
            (List.length fb.Fd_core.Infoflow.fb_result.Fd_core.Infoflow.r_findings)
            (List.length diags) flight
      | Error o ->
          (* Fallback_failed lands here: every rung crashed but the
             barrier held — still not an escaped exception *)
          bump (Fd_resilience.Outcome.to_string o);
          Printf.printf "%-28s %s\n" label (Fd_resilience.Outcome.to_string o)
      | exception e ->
          incr escaped;
          Printf.printf "%-28s ESCAPED: %s\n" label (Printexc.to_string e))
    Fd_droidbench.Suite.all;
  Printf.printf "\nchaos run: seed=%d rate=%.2f, %d app(s), %d fault(s) injected\n"
    seed rate
    (List.length Fd_droidbench.Suite.all)
    (Fd_resilience.Chaos.faults_injected chaos);
  Printf.printf "outcomes: %s\n"
    (String.concat ", "
       (List.sort compare
          (Hashtbl.fold
             (fun k n acc -> Printf.sprintf "%s: %d" k n :: acc)
             dist [])));
  if !escaped > 0 then begin
    Printf.eprintf "error: %d exception(s) escaped the barrier\n" !escaped;
    exit 1
  end

(* Exit code 4 distinguishes an interrupted campaign from clean (0),
   error (1) and escaped-chaos (1) exits. *)
let run app_name dump_dir show_outcomes chaos_rate chaos_seed config jobs
    sinks =
  Cli.cancel_on_signals ();
  let config = Cli.profile sinks config in
  (match dump_dir with
  | Some dir ->
      (match app_name with
      | Some name -> dump_app dir (find_app name).Fd_droidbench.Bench_app.app_apk
      | None ->
          List.iter
            (fun (a : Fd_droidbench.Bench_app.t) ->
              dump_app dir a.Fd_droidbench.Bench_app.app_apk)
            Fd_droidbench.Suite.all);
      exit 0
  | None -> ());
  (match (chaos_rate, app_name) with
  | Some rate, _ -> run_chaos ~config ~seed:chaos_seed rate
  | None, Some name -> run_one ~config (find_app name)
  | None, None ->
      let engines =
        [ Fd_eval.Engines.appscan; Fd_eval.Engines.fortify;
          Fd_eval.Engines.flowdroid ~config () ]
      in
      let t = Fd_eval.Droidbench_table.run ~jobs engines in
      (match precision_note config with
      | "" -> ()
      | note ->
          Printf.printf "FlowDroid configuration%s\n"
            note);
      print_string (Fd_eval.Droidbench_table.render t);
      if show_outcomes then begin
        print_newline ();
        print_endline "Per-app termination states (non-complete only):";
        (match Fd_eval.Droidbench_table.render_outcomes t with
        | "" -> print_endline "  all runs complete"
        | s -> print_string s);
        Printf.printf "outcome distribution: %s\n"
          (String.concat ", "
             (List.map
                (fun (k, n) -> Printf.sprintf "%s: %d" k n)
                (Fd_eval.Droidbench_table.outcome_distribution t)))
      end);
  let written = Cli.write_sinks sinks in
  Cli.drain_store_diags ();
  if Fd_resilience.Budget.cancelling_all () then begin
    prerr_endline
      "droidbench_runner: interrupted — partial results above (cancelled \
       runs report outcome: cancelled)";
    exit 4
  end;
  if not written then exit 1

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "droidbench_runner"
             ~doc:
               "Table 1: DroidBench results for FlowDroid and the two \
                simulated comparators.")
          Term.(
            const run $ app_name $ dump_dir $ show_outcomes $ chaos_rate
            $ chaos_seed
            $ Cli.config
                [ Cli.deadline; Cli.precision; Cli.provenance;
                  Cli.summary_store; Cli.targeted; Cli.icc ]
            $ Cli.jobs $ Cli.sinks)))
