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

let fleet =
  Arg.(
    value
    & opt (Cli.int_at_least 1) 8
    & info [ "fleet" ] ~docv:"N" ~doc:"Apps in the fleet.")

let depth =
  Arg.(
    value
    & opt (Cli.int_at_least 2) 300
    & info [ "depth" ] ~docv:"D" ~doc:"Step methods in each app's library chain.")

let mode =
  Arg.(
    value
    & opt (enum [ ("full", `Full); ("targeted", `Targeted) ]) `Full
    & info [ "mode" ] ~doc:"$(b,full) or $(b,targeted) analysis.")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")

(* the --targeted patterns, defaulting to the SMS sink *)
let patterns =
  Term.(
    const (fun (c : Fd_core.Config.t) ->
        match c.Fd_core.Config.targeted with
        | [] -> [ "SmsManager.sendTextMessage" ]
        | ps -> ps)
    $ Cli.config [ Cli.targeted_no_env ])

(* ------------------------------------------------------------------ *)
(* per-app deep library: lib.BoxN + lib.ChainN of [depth] steps        *)
(* ------------------------------------------------------------------ *)

(* each app carries its OWN copy of the chain (classes lib.BoxI /
   lib.ChainI) so full mode pays the whole solve per app — no store,
   no cross-app sharing; this is exactly the cost targeting avoids *)

let lib_box i =
  Printf.sprintf
    "class lib.Box%d {\n\
    \  field val : java.lang.String;\n\
    \  field aux : java.lang.String;\n\
    \  method void <init>() {\n\
    \    this := @this: lib.Box%d;\n\
    \    return;\n\
    \  }\n\
     }\n"
    i i

let chain_step ~app ~depth i =
  if i = depth - 1 then
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : lib.Box%d;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new lib.Box%d;\n\
      \    specialinvoke b.lib.Box%d#<init>();\n\
      \    b.lib.Box%d#val = p;\n\
      \    t = b.lib.Box%d#val;\n\
      \    return t;\n\
      \  }\n"
      i app app app app app
  else
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : lib.Box%d;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new lib.Box%d;\n\
      \    specialinvoke b.lib.Box%d#<init>();\n\
      \    b.lib.Box%d#val = p;\n\
      \    t = b.lib.Box%d#val;\n\
      \    t = staticinvoke lib.Chain%d#step%d(t);\n\
      \    b.lib.Box%d#aux = t;\n\
      \    t = b.lib.Box%d#aux;\n\
      \    return t;\n\
      \  }\n"
      i app app app app app app (i + 1) app app

let lib_chain ~app ~depth =
  let buf = Buffer.create (depth * 256) in
  Buffer.add_string buf (Printf.sprintf "class lib.Chain%d {\n" app);
  for i = 0 to depth - 1 do
    Buffer.add_string buf (chain_step ~app ~depth i)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* app 0 ends in the targeted SMS sink; every other app leaks the
   same taint into an untargeted Log sink *)
let app_class ~targeted_sink i =
  let sink_lines =
    if targeted_sink then
      "    sms = staticinvoke android.telephony.SmsManager#getDefault();\n\
      \    virtualinvoke sms.android.telephony.SmsManager#sendTextMessage(\"+1\", \
       null, out, null, null) @\"sink-sms\";\n"
    else
      "    staticinvoke android.util.Log#i(\"fleet\", out) @\"sink-log\";\n"
  in
  Printf.sprintf
    "class fleet.App%d extends android.app.Activity {\n\
    \  method void onCreate(android.os.Bundle) {\n\
    \    local savedState : java.lang.Object;\n\
    \    local tm : android.telephony.TelephonyManager;\n\
    \    local imei : java.lang.Object;\n\
    \    local out : java.lang.Object;\n\
    \    local sms : android.telephony.SmsManager;\n\
    \    this := @this: fleet.App%d;\n\
    \    savedState := @parameter0;\n\
    \    tm = new android.telephony.TelephonyManager;\n\
    \    imei = virtualinvoke \
     tm.android.telephony.TelephonyManager#getDeviceId() @\"src-imei\";\n\
    \    out = staticinvoke lib.Chain%d#step0(imei);\n\
     %s\
    \    return;\n\
    \  }\n\
     }\n"
    i i i sink_lines

let manifest i =
  Printf.sprintf
    "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n\
     <manifest package=\"fleet\">\n\
    \  <application>\n\
    \    <activity android:name=\"fleet.App%d\">\n\
    \      <intent-filter>\n\
    \        <action android:name=\"android.intent.action.MAIN\"/>\n\
    \        <category android:name=\"android.intent.category.LAUNCHER\"/>\n\
    \      </intent-filter>\n\
    \    </activity>\n\
    \  </application>\n\
     </manifest>\n"
    i

let make_apk ~depth i =
  Fd_frontend.Apk.make_text
    (Printf.sprintf "targeted-fleet-%d" i)
    ~manifest:(manifest i) ~layouts:[]
    [ lib_box i; lib_chain ~app:i ~depth; app_class ~targeted_sink:(i = 0) i ]

(* ------------------------------------------------------------------ *)

let render_findings findings =
  List.map
    (fun (f : Fd_core.Bidi.finding) ->
      Printf.sprintf "%s -> %s%s"
        (match f.Fd_core.Bidi.f_source.Fd_core.Taint.si_tag with
        | Some t -> t
        | None -> f.Fd_core.Bidi.f_source.Fd_core.Taint.si_desc)
        (Fd_callgraph.Icfg.string_of_node f.Fd_core.Bidi.f_sink_node)
        (match f.Fd_core.Bidi.f_sink_tag with
        | Some t -> " @" ^ t
        | None -> ""))
    findings
  |> List.sort_uniq compare |> String.concat "\n"

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
        render_findings findings)
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
            const run $ fleet $ depth $ Cli.jobs $ mode $ patterns $ json_out)))
