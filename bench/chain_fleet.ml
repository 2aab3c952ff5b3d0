(* The chain-library fleets behind the store and targeted gates: apps
   whose activity routes the IMEI through a deep library chain
   (lib.Box + lib.Chain of [depth] step methods) into a sink, and the
   options both gate drivers take.  A class suffix names the library
   copy: [""] is one library every app shares (store_bench), the app
   index gives each app its own (targeted_bench). *)

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
    & info [ "depth" ] ~docv:"D" ~doc:"Step methods in the library chain.")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")

let lib_box ~suffix =
  Printf.sprintf
    "class lib.Box%s {\n\
    \  field val : java.lang.String;\n\
    \  field aux : java.lang.String;\n\
    \  method void <init>() {\n\
    \    this := @this: lib.Box%s;\n\
    \    return;\n\
    \  }\n\
     }\n"
    suffix suffix

(* each step stores the taint into a heap cell, reads it back (alias
   work for the backward pass), forwards it down the chain, and stages
   the result through a second field — enough per-method solver work
   that re-solving the chain dwarfs decoding its summaries *)
let chain_step ~suffix ~depth i =
  let s = suffix in
  if i = depth - 1 then
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : lib.Box%s;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new lib.Box%s;\n\
      \    specialinvoke b.lib.Box%s#<init>();\n\
      \    b.lib.Box%s#val = p;\n\
      \    t = b.lib.Box%s#val;\n\
      \    return t;\n\
      \  }\n"
      i s s s s s
  else
    Printf.sprintf
      "  static method java.lang.String step%d(java.lang.String) {\n\
      \    local p : java.lang.Object;\n\
      \    local b : lib.Box%s;\n\
      \    local t : java.lang.Object;\n\
      \    p := @parameter0;\n\
      \    b = new lib.Box%s;\n\
      \    specialinvoke b.lib.Box%s#<init>();\n\
      \    b.lib.Box%s#val = p;\n\
      \    t = b.lib.Box%s#val;\n\
      \    t = staticinvoke lib.Chain%s#step%d(t);\n\
      \    b.lib.Box%s#aux = t;\n\
      \    t = b.lib.Box%s#aux;\n\
      \    return t;\n\
      \  }\n"
      i s s s s s s (i + 1) s s

let lib_chain ~suffix ~depth =
  let buf = Buffer.create (depth * 256) in
  Buffer.add_string buf (Printf.sprintf "class lib.Chain%s {\n" suffix);
  for i = 0 to depth - 1 do
    Buffer.add_string buf (chain_step ~suffix ~depth i)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* the sink statements that end [onCreate], reading [out] *)
let sms_sink =
  "    sms = staticinvoke android.telephony.SmsManager#getDefault();\n\
  \    virtualinvoke sms.android.telephony.SmsManager#sendTextMessage(\"+1\", \
   null, out, null, null) @\"sink-sms\";\n"

let log_sink = "    staticinvoke android.util.Log#i(\"fleet\", out) @\"sink-log\";\n"

let app_class ~suffix ~sink i =
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
    \    out = staticinvoke lib.Chain%s#step0(imei);\n\
     %s\
    \    return;\n\
    \  }\n\
     }\n"
    i i suffix sink

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

(* one line per distinct (source, sink), sorted: the text both gates
   digest *)
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
