(* The shared command-line flags (lib/cli):

   - every executable that takes a shared flag still accepts exactly
     the options and environment variables in flag_inventory.txt;
   - --jobs (and FLOWDROID_JOBS) reject zero, negative and non-integer
     values;
   - --targeted repeats, splits comma lists and drops blanks; its
     environment variable applies only when the flag is absent;
   - --precision rejects unknown passes; FLOWDROID_ICC takes cmdliner's
     boolean spellings; an empty FLOWDROID_SUMMARY_STORE means off. *)

open Cmdliner
module Cli = Fd_cli.Cli
module Config = Fd_core.Config

(* ---------------- flag inventory ---------------------------------- *)

let input_lines ic =
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

let help_of exe =
  let ic = Unix.open_process_args_in exe [| exe; "--help=plain" |] in
  let lines = input_lines ic in
  ignore (Unix.close_process_in ic);
  lines

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* option names from the OPTIONS sections ("       -k VAL, --long=VAL
   (absent=5)") and variable names from ENVIRONMENT, cmdliner's
   --help excluded *)
let accepted exe =
  let section = ref "" in
  let opts = ref [] and envs = ref [] in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> ' ' then section := line
      else if
        (!section = "OPTIONS" || !section = "COMMON OPTIONS")
        && starts_with ~prefix:"       -" line
      then begin
        let head =
          match String.index_opt line '(' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        List.iter
          (fun piece ->
            match words piece with
            | name :: _ ->
                let name =
                  List.hd (String.split_on_char '=' name)
                  |> String.split_on_char '[' |> List.hd
                in
                if name <> "--help" then opts := name :: !opts
            | [] -> ())
          (String.split_on_char ',' head)
      end
      else if !section = "ENVIRONMENT" && starts_with ~prefix:"       " line
      then
        match words line with
        | [ v ] when String.for_all (fun c -> c = '_' || c = Char.uppercase_ascii c) v
          ->
            envs := v :: !envs
        | _ -> ())
    (help_of exe);
  (List.sort_uniq compare !opts, List.sort_uniq compare !envs)

let test_inventory () =
  let rows =
    List.filter
      (fun l -> l <> "" && l.[0] <> '#')
      (In_channel.with_open_text "flag_inventory.txt" input_lines)
  in
  Alcotest.(check int) "ten executables" 10 (List.length rows);
  List.iter
    (fun row ->
      match String.split_on_char ':' row with
      | [ exe; rest ] -> (
          match String.split_on_char '|' rest with
          | [ opts; envs ] ->
              let got_opts, got_envs = accepted ("../" ^ exe ^ ".exe") in
              Alcotest.(check (list string)) (exe ^ " options") (words opts)
                got_opts;
              Alcotest.(check (list string))
                (exe ^ " environment") (words envs) got_envs
          | _ -> Alcotest.failf "malformed inventory row %S" row)
      | _ -> Alcotest.failf "malformed inventory row %S" row)
    rows

(* ---------------- evaluating the shared terms --------------------- *)

let eval ?(env = []) term argv =
  match
    Cmd.eval_value ~err:Format.str_formatter
      ~env:(fun v -> List.assoc_opt v env)
      ~argv:(Array.of_list ("test" :: argv))
      (Cmd.v (Cmd.info "test") term)
  with
  | Ok (`Ok v) -> Some v
  | Ok (`Help | `Version) | Error _ ->
      ignore (Format.flush_str_formatter ());
      None

let test_jobs () =
  let jobs ?env argv = eval ?env Cli.jobs argv in
  Alcotest.(check (option int)) "default" (Some 1) (jobs []);
  Alcotest.(check (option int)) "--jobs 3" (Some 3) (jobs [ "--jobs"; "3" ]);
  List.iter
    (fun v ->
      Alcotest.(check (option int)) ("--jobs " ^ v) None (jobs [ "--jobs"; v ]))
    [ "0"; "-1"; "-8"; "two"; "" ];
  Alcotest.(check (option int)) "FLOWDROID_JOBS=4" (Some 4)
    (jobs ~env:[ ("FLOWDROID_JOBS", "4") ] []);
  Alcotest.(check (option int)) "FLOWDROID_JOBS=0" None
    (jobs ~env:[ ("FLOWDROID_JOBS", "0") ] [])

let config ?env edits argv = eval ?env (Cli.config edits) argv

let targeted ?env edit argv =
  Option.map (fun c -> c.Config.targeted) (config ?env [ edit ] argv)

let test_targeted () =
  let sl = Alcotest.(option (list string)) in
  Alcotest.check sl "repeatable, comma lists, blanks dropped"
    (Some [ "a"; "b"; "c" ])
    (targeted Cli.targeted [ "--targeted"; "a, b"; "--targeted"; " c ,," ]);
  let env = [ ("FLOWDROID_TARGETED", "x,y") ] in
  Alcotest.check sl "env when the flag is absent" (Some [ "x"; "y" ])
    (targeted ~env Cli.targeted []);
  Alcotest.check sl "the flag replaces the env" (Some [ "z" ])
    (targeted ~env Cli.targeted [ "--targeted"; "z" ]);
  Alcotest.check sl "no env without it" (Some [])
    (targeted ~env Cli.targeted_no_env [])

let test_other_flags () =
  let get f ?env edit argv = Option.map f (config ?env [ edit ] argv) in
  Alcotest.(check (option string)) "--precision parses"
    (Some "must-alias,clinit")
    (get
       (fun c -> Config.string_of_precision c.Config.precision)
       Cli.precision
       [ "--precision"; "must-alias,clinit" ]);
  Alcotest.(check bool) "--precision rejects unknown passes" true
    (config [ Cli.precision ] [ "--precision"; "bogus" ] = None);
  List.iter
    (fun (v, want) ->
      Alcotest.(check (option bool)) ("FLOWDROID_ICC=" ^ v) want
        (get
           (fun c -> c.Config.icc)
           ~env:[ ("FLOWDROID_ICC", v) ]
           Cli.icc []))
    [ ("1", Some true); ("true", Some true); ("yes", Some true);
      ("0", Some false); ("false", Some false); ("maybe", None) ];
  Alcotest.(check (option (option string))) "empty store env is off"
    (Some None)
    (get
       (fun c -> c.Config.summary_store)
       ~env:[ ("FLOWDROID_SUMMARY_STORE", "") ]
       Cli.summary_store []);
  Alcotest.(check (option (option (float 0.)))) "--deadline" (Some (Some 2.5))
    (get (fun c -> c.Config.deadline_s) Cli.deadline [ "--deadline"; "2.5" ]);
  Alcotest.(check bool) "edits compose over Config.default" true
    (config [ Cli.provenance; Cli.icc ] [ "--provenance"; "--icc" ]
    = Some { Config.default with Config.provenance = true; icc = true })

(* ---------------- access-path bound ------------------------------ *)

let exit_code exe args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) null null null
  in
  Unix.close null;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> n
  | _ -> Alcotest.failf "%s was killed" exe

(* k < 1 is a command-line error (124) on both command lines; a valid
   k runs: the CLI finds the leak (2), the client finds no daemon (2) *)
let test_k_at_least_one () =
  let app = "../examples/apps/leakage_app" in
  let cli k = exit_code "../bin/flowdroid_cli.exe" [ "-k"; k; app ] in
  let client k =
    exit_code "../bin/flowdroid_client.exe"
      [ "analyze"; "-k"; k; "--gen"; "play:1:1"; "--socket";
        "/nonexistent/flowdroid.sock" ]
  in
  List.iter
    (fun k ->
      Alcotest.(check int) ("flowdroid -k " ^ k) 124 (cli k);
      Alcotest.(check int) ("flowdroid_client -k " ^ k) 124 (client k))
    [ "0"; "-1"; "two" ];
  Alcotest.(check int) "flowdroid -k 1" 2 (cli "1");
  Alcotest.(check int) "flowdroid_client -k 1" 2 (client "1")

(* ---------------- a lenient multi-app run ---------------------- *)

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let count_sub ~sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* a second app with its own class names and one activity, optionally
   with one layout *)
let other_app ?layout () =
  let dir = Filename.temp_dir "fd_cli" "" in
  write_file
    (Filename.concat dir "AndroidManifest.xml")
    {|<manifest package="t"><application>
  <activity android:name="t.Other"/>
</application></manifest>|};
  Option.iter
    (fun src ->
      let res = Filename.concat dir "res" in
      let layouts = Filename.concat res "layout" in
      Unix.mkdir res 0o755;
      Unix.mkdir layouts 0o755;
      write_file (Filename.concat layouts "other.xml") src)
    layout;
  write_file
    (Filename.concat dir "Other.jimple")
    {|class t.Other extends android.app.Activity {
  method void onCreate(android.os.Bundle) {
    local b : android.os.Bundle;
    this := @this: t.Other;
    b := @parameter0;
    return;
  }
}|};
  dir

(* [run_cli args] is the flowdroid CLI's exit code, stdout and stderr *)
let run_cli args =
  let out = Filename.temp_file "fd_cli" ".out" in
  let err = Filename.temp_file "fd_cli" ".err" in
  let exe = "../bin/flowdroid_cli.exe" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let outfd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) null outfd errfd
  in
  List.iter Unix.close [ null; outfd; errfd ];
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _ -> Alcotest.failf "%s was killed" exe
  in
  let read f =
    let s = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    s
  in
  let stdout = read out in
  (code, stdout, read err)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* the lenient two-app run skips the second app's malformed layout,
   warns about it exactly once and still reports the sample app's
   leak *)
let test_lenient_two_apps () =
  let dir =
    other_app ~layout:{|<?xml version="1.0" encoding="utf-8"?>
<LinearLayout>|} ()
  in
  let code, _, stderr =
    run_cli [ "--lenient"; "../examples/apps/leakage_app"; "--apk"; dir ]
  in
  rm_rf dir;
  Alcotest.(check int) "leak found" 2 code;
  Alcotest.(check int) "one skipped-layout warning" 1
    (count_sub ~sub:"skipped layout" stderr)

(* with two apps the dump shows [dummyMain], a loop over one call per
   app, then each app's own dummy method, which alone creates that
   app's components *)
let test_dump_two_dummy_mains () =
  let dir = other_app () in
  let code, stdout, _ =
    run_cli
      [ "--dump-dummy-main"; "../examples/apps/leakage_app"; "--apk"; dir ]
  in
  rm_rf dir;
  Alcotest.(check int) "leak found" 2 code;
  (* the text from each heading to the next *)
  let rec index_from i sub =
    if i + String.length sub > String.length stdout then None
    else if String.sub stdout i (String.length sub) = sub then Some i
    else index_from (i + 1) sub
  in
  let headings =
    [ "Generated dummy main"; "Dummy main of app 0"; "Dummy main of app 1";
      "Dummy main of app 2" ]
  in
  let starts = List.map (index_from 0) headings in
  let has sub s = count_sub ~sub s > 0 in
  match starts with
  | [ Some o; Some a0; Some a1; None ] when o < a0 && a0 < a1 ->
      let outer = String.sub stdout o (a0 - o) in
      let app0 = String.sub stdout a0 (a1 - a0) in
      let app1 = String.sub stdout a1 (String.length stdout - a1) in
      Alcotest.(check bool) "outer loop calls app 0" true
        (has "staticinvoke dummyMainClass#dummyMain_app0()" outer);
      Alcotest.(check bool) "outer loop calls app 1" true
        (has "staticinvoke dummyMainClass#dummyMain_app1()" outer);
      Alcotest.(check bool) "outer loop creates no component" false
        (has " = new " outer);
      Alcotest.(check (pair bool bool)) "app 0 creates LeakageApp only"
        (true, false)
        (has "new de.ecspride.LeakageApp" app0, has "new t.Other" app0);
      Alcotest.(check (pair bool bool)) "app 1 creates Other only"
        (false, true)
        (has "new de.ecspride.LeakageApp" app1, has "new t.Other" app1)
  | _ -> Alcotest.failf "expected three dummy-method sections in:\n%s" stdout

let () =
  Alcotest.run "fd_cli"
    [
      ( "cli",
        [
          Alcotest.test_case "flag inventory unchanged" `Quick test_inventory;
          Alcotest.test_case "--jobs rejects non-positive values" `Quick
            test_jobs;
          Alcotest.test_case "--targeted repeats and splits" `Quick
            test_targeted;
          Alcotest.test_case "precision, icc, store, deadline" `Quick
            test_other_flags;
          Alcotest.test_case "-k rejects values below 1" `Quick
            test_k_at_least_one;
          Alcotest.test_case "lenient two-app run warns once" `Quick
            test_lenient_two_apps;
          Alcotest.test_case "--dump-dummy-main prints every app's method"
            `Quick test_dump_two_dummy_mains;
        ] );
    ]
