(* The targeted-mode gate workload: a fleet of large apps, each
   routing a tainted value through its own deep library chain, but
   only ONE of them ever calls the sink under investigation
   (SmsManager.sendTextMessage) — the rest leak into untargeted Log
   sinks.  Full mode must solve every app end to end; targeted mode
   text-indexes each app for the sink, gets an empty slice for all
   but the one offender, and skips their solves entirely.  That is
   the "query one API across a large fleet" scenario demand-driven
   slicing exists for.

     targeted_bench [--fleet N] [--depth D] [--jobs N]
                    [--mode full|targeted] [--targeted SIG]
                    [--json FILE]

   In --mode full the --targeted patterns only post-filter the
   findings (via [Infoflow.restrict_findings]) so the printed digest
   is comparable; in --mode targeted they drive [Config.targeted].
   The digests must be bit-identical across modes and at any --jobs,
   which bench/check_targeted.sh asserts before folding the timings
   into BENCH_targeted.json. *)

open Cmdliner
module Cli = Fd_cli.Cli
module F = Chain_fleet

let mode =
  Arg.(
    value
    & opt (enum [ ("full", `Full); ("targeted", `Targeted) ]) `Full
    & info [ "mode" ] ~doc:"$(b,full) or $(b,targeted) analysis.")

(* the --targeted patterns, defaulting to the SMS sink *)
let patterns =
  Term.(
    const (fun (c : Fd_core.Config.t) ->
        match c.Fd_core.Config.targeted with
        | [] -> [ "SmsManager.sendTextMessage" ]
        | ps -> ps)
    $ Cli.config [ Cli.targeted_no_env ])

(* each app carries its OWN copy of the chain (classes lib.BoxI /
   lib.ChainI) so full mode pays the whole solve per app — no store,
   no cross-app sharing; this is exactly the cost targeting avoids.
   App 0 ends in the targeted SMS sink; every other app leaks the same
   taint into an untargeted Log sink. *)
let make_apk ~depth i =
  let suffix = string_of_int i in
  Fd_frontend.Apk.make_text
    (Printf.sprintf "targeted-fleet-%d" i)
    ~manifest:(F.manifest i) ~layouts:[]
    [
      F.lib_box ~suffix;
      F.lib_chain ~suffix ~depth;
      F.app_class ~suffix ~sink:(if i = 0 then F.sms_sink else F.log_sink) i;
    ]

(* ------------------------------------------------------------------ *)

let run fleet depth jobs mode patterns json_out =
  let config =
    match mode with
    | `Full -> Fd_core.Config.default
    | `Targeted -> { Fd_core.Config.default with Fd_core.Config.targeted = patterns }
  in
  let apks = List.init fleet (make_apk ~depth) in
  (* timing covers only the analysis loop: app construction and
     process startup are identical in both modes *)
  let t0 = Unix.gettimeofday () in
  let rendered =
    Fd_util.Pool.map ~jobs
      (fun apk ->
        let r = Fd_core.Infoflow.analyze_apk ~config apk in
        let findings =
          match mode with
          | `Targeted -> r.Fd_core.Infoflow.r_findings
          | `Full ->
              (* restrict to the queried sinks so digests compare *)
              Fd_core.Infoflow.restrict_findings
                ~icfg:r.Fd_core.Infoflow.r_icfg ~patterns
                r.Fd_core.Infoflow.r_findings
        in
        F.render_findings findings)
      apks
  in
  let dt = Unix.gettimeofday () -. t0 in
  let digest = Digest.to_hex (Digest.string (String.concat "\n---\n" rendered)) in
  let leaks =
    List.fold_left
      (fun a r -> a + (if String.equal r "" then 0 else 1))
      0 rendered
  in
  let probes = Fd_obs.Metrics.counter_value "targeted.index_probes" in
  Printf.printf
    "fleet=%d depth=%d jobs=%d mode=%s: %.4f s, %d/%d apps leak into %s, \
     digest=%s\n"
    fleet depth jobs
    (match mode with `Full -> "full" | `Targeted -> "targeted")
    dt leaks fleet
    (String.concat "," patterns)
    digest;
  if mode = `Targeted then
    Printf.printf "targeted.index_probes=%d\n" probes;
  (match json_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\n \"fleet\": %d,\n \"depth\": %d,\n \"jobs\": %d,\n \"mode\": \
         \"%s\",\n \"seconds\": %.4f,\n \"leaking_apps\": %d,\n \"digest\": \
         \"%s\",\n \"index_probes\": %d\n}\n"
        fleet depth jobs
        (match mode with `Full -> "full" | `Targeted -> "targeted")
        dt leaks digest probes;
      close_out oc);
  (* exactly the one offender app must leak into the targeted sink,
     in either mode, or the workload is meaningless *)
  if leaks <> 1 then begin
    Printf.eprintf
      "FAIL: %d of %d apps leak into the targeted sink (expected 1)\n"
      leaks fleet;
    exit 1
  end

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "targeted_bench" ~doc:"The targeted-mode gate workload.")
          Term.(
            const run $ F.fleet $ F.depth $ Cli.jobs $ mode $ patterns
            $ F.json_out)))
