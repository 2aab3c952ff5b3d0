(* The summary-store gate workload: a fleet of apps that all route one
   tainted value through the same deep shared library.  Store off,
   every app re-solves the whole chain; with a store, the library is
   solved once per fleet and every later visit injects the persisted
   summaries — the cross-app reuse the store exists for.

     store_bench [--fleet N] [--depth D] [--jobs N]
                 [--summary-store DIR] [--json FILE]

   Prints per-run timing plus a digest over every app's rendered
   findings (bit-identical across store off / cold / hot and at any
   --jobs), and optionally writes a flat JSON report that
   bench/check_store.sh folds into BENCH_store.json. *)

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
    & info [ "depth" ] ~docv:"D" ~doc:"Step methods in the shared library chain.")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")

(* ------------------------------------------------------------------ *)
(* the shared library: lib.Box + a lib.Chain of [depth] step methods   *)
(* ------------------------------------------------------------------ *)

let lib_box =
  "class lib.Box {\n\
  \  field val : java.lang.String;\n\
  \  field aux : java.lang.String;\n\
  \  method void <init>() {\n\
  \    this := @this: lib.Box;\n\
  \    return;\n\
  \  }\n\
   }\n"

(* each step stores the taint into a heap cell, reads it back (alias
   work for the backward pass), forwards it down the chain, and stages
   the result through a second field — enough per-method solver work
   that re-solving the chain dwarfs decoding its summaries *)
let chain_step ~depth i =
  if i = depth - 1 then
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : lib.Box;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new lib.Box;\n\
      \    specialinvoke b.lib.Box#<init>();\n\
      \    b.lib.Box#val = p;\n\
      \    t = b.lib.Box#val;\n\
      \    return t;\n\
      \  }\n"
      i
  else
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : lib.Box;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new lib.Box;\n\
      \    specialinvoke b.lib.Box#<init>();\n\
      \    b.lib.Box#val = p;\n\
      \    t = b.lib.Box#val;\n\
      \    t = staticinvoke lib.Chain#step%d(t);\n\
      \    b.lib.Box#aux = t;\n\
      \    t = b.lib.Box#aux;\n\
      \    return t;\n\
      \  }\n"
      i (i + 1)

let lib_chain ~depth =
  let buf = Buffer.create (depth * 256) in
  Buffer.add_string buf "class lib.Chain {\n";
  for i = 0 to depth - 1 do
    Buffer.add_string buf (chain_step ~depth i)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let app_class i =
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
    \    out = staticinvoke lib.Chain#step0(imei);\n\
    \    sms = staticinvoke android.telephony.SmsManager#getDefault();\n\
    \    virtualinvoke sms.android.telephony.SmsManager#sendTextMessage(\"+1\", \
     null, out, null, null) @\"sink-sms\";\n\
    \    return;\n\
    \  }\n\
     }\n"
    i i

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
    (Printf.sprintf "fleet-app-%d" i)
    ~manifest:(manifest i) ~layouts:[]
    [ lib_box; lib_chain ~depth; app_class i ]

(* ------------------------------------------------------------------ *)

let render_findings (r : Fd_core.Infoflow.result) =
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
    r.Fd_core.Infoflow.r_findings
  |> List.sort_uniq compare |> String.concat "\n"

let run fleet depth jobs config json_out =
  let store_on = config.Fd_core.Config.summary_store <> None in
  let apks = List.init fleet (make_apk ~depth) in
  (* timing covers only the analysis loop: app construction and
     process startup are identical in every configuration *)
  let t0 = Unix.gettimeofday () in
  let rendered =
    Fd_util.Pool.map ~jobs
      (fun apk ->
        render_findings (Fd_core.Infoflow.analyze_apk ~config apk))
      apks
  in
  let dt = Unix.gettimeofday () -. t0 in
  let digest = Digest.to_hex (Digest.string (String.concat "\n---\n" rendered)) in
  let leaks =
    List.fold_left
      (fun a r -> a + (if String.equal r "" then 0 else 1))
      0 rendered
  in
  let hits = Fd_obs.Metrics.counter_value "store.hits" in
  let misses = Fd_obs.Metrics.counter_value "store.misses" in
  Printf.printf
    "fleet=%d depth=%d jobs=%d store=%s: %.4f s, %d/%d apps leak, digest=%s\n"
    fleet depth jobs
    (if store_on then "on" else "off")
    dt leaks fleet digest;
  if store_on then
    Printf.printf "store.hits=%d store.misses=%d\n" hits misses;
  Cli.drain_store_diags ();
  (match json_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\n \"fleet\": %d,\n \"depth\": %d,\n \"jobs\": %d,\n \"seconds\": \
         %.4f,\n \"leaking_apps\": %d,\n \"digest\": \"%s\",\n \"hits\": \
         %d,\n \"misses\": %d\n}\n"
        fleet depth jobs dt leaks digest hits misses;
      close_out oc);
  (* every app must exhibit its planted leak, or the workload is
     meaningless *)
  if leaks <> fleet then begin
    Printf.eprintf "FAIL: only %d of %d apps reported the planted leak\n"
      leaks fleet;
    exit 1
  end

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "store_bench" ~doc:"The summary-store gate workload.")
          Term.(
            const run $ fleet $ depth $ Cli.jobs
            $ Cli.config [ Cli.summary_store ]
            $ json_out)))
