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
module F = Chain_fleet

(* every app shares one library: the classes carry no suffix *)
let make_apk ~depth i =
  Fd_frontend.Apk.make_text
    (Printf.sprintf "fleet-app-%d" i)
    ~manifest:(F.manifest i) ~layouts:[]
    [
      F.lib_box ~suffix:"";
      F.lib_chain ~suffix:"" ~depth;
      F.app_class ~suffix:"" ~sink:F.sms_sink i;
    ]

(* ------------------------------------------------------------------ *)

let run fleet depth jobs config json_out =
  let store_on = config.Fd_core.Config.summary_store <> None in
  let apks = List.init fleet (make_apk ~depth) in
  (* timing covers only the analysis loop: app construction and
     process startup are identical in every configuration *)
  let t0 = Unix.gettimeofday () in
  let rendered =
    Fd_util.Pool.map ~jobs
      (fun apk ->
        F.render_findings
          (Fd_core.Infoflow.analyze_apk ~config apk).Fd_core.Infoflow.r_findings)
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
            const run $ F.fleet $ F.depth $ Cli.jobs
            $ Cli.config [ Cli.summary_store ]
            $ F.json_out)))
