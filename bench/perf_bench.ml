(* The performance gate workload: the full DroidBench table (FlowDroid
   plus both simulated comparators) and the full SecuriBench-µ table,
   timed per iteration, with a digest of every rendered table so two
   runs can be compared for bit-identical output (the --jobs
   determinism contract).

     perf_bench [--jobs N] [--repeat N] [--json FILE]

   Prints one line per iteration plus a summary; --json writes a small
   machine-readable report (seconds per iteration, digest, intern/pool
   counter readings) that bench/check_perf.sh folds into
   BENCH_perf.json. *)

open Cmdliner
module Cli = Fd_cli.Cli

let repeat =
  Arg.(
    value
    & opt (Cli.int_at_least 1) 5
    & info [ "repeat" ] ~docv:"N" ~doc:"Timed iterations after the warm-up.")

let json_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")

(* one iteration of the gate workload; returns the rendered output *)
let iteration ~jobs () =
  let engines =
    [ Fd_eval.Engines.flowdroid (); Fd_eval.Engines.appscan;
      Fd_eval.Engines.fortify ]
  in
  let db = Fd_eval.Droidbench_table.run ~jobs engines in
  let sb = Fd_eval.Securibench_table.run ~jobs () in
  Fd_eval.Droidbench_table.render db
  ^ Fd_eval.Droidbench_table.render_outcomes db
  ^ Fd_eval.Securibench_table.render sb

let run jobs repeat json_out =
  (* warm-up iteration: fills the lazy framework/rules templates and
     faults in the code paths, so timed iterations measure the steady
     state the solver runs in *)
  let rendered = iteration ~jobs () in
  let digest = Digest.to_hex (Digest.string rendered) in
  let times =
    List.init repeat (fun i ->
        let t0 = Unix.gettimeofday () in
        let r = iteration ~jobs () in
        let dt = Unix.gettimeofday () -. t0 in
        if not (String.equal r rendered) then begin
          Printf.eprintf
            "FAIL: iteration %d rendered different output (digest %s vs %s)\n"
            (i + 1)
            (Digest.to_hex (Digest.string r))
            digest;
          exit 1
        end;
        Printf.printf "iteration %d/%d: %.4f s\n%!" (i + 1) repeat dt;
        dt)
  in
  let best = List.fold_left min infinity times in
  let mean = List.fold_left ( +. ) 0. times /. float_of_int repeat in
  Printf.printf "jobs=%d repeat=%d best=%.4f s mean=%.4f s digest=%s\n" jobs
    repeat best mean digest;
  let dedup = Fd_obs.Metrics.counter_value "ifds.worklist_dedup_hits" in
  Printf.printf "worklist dedup hits (cumulative): %d\n" dedup;
  match json_out with
  | None -> ()
  | Some path ->
      let j =
        Fd_obs.Json.Obj
          [
            ("jobs", Fd_obs.Json.Int jobs);
            ("repeat", Fd_obs.Json.Int repeat);
            ("best_s", Fd_obs.Json.Float best);
            ("mean_s", Fd_obs.Json.Float mean);
            ("digest", Fd_obs.Json.String digest);
            ("worklist_dedup_hits", Fd_obs.Json.Int dedup);
          ]
      in
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Fd_obs.Json.to_string ~indent:1 j ^ "\n"));
      Printf.eprintf "wrote %s\n" path

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "perf_bench" ~doc:"The performance gate workload.")
          Term.(const run $ Cli.jobs $ repeat $ json_out)))
