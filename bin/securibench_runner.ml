(* Regenerates Table 2: SecuriBench-µ results for FlowDroid.
   [--help] lists the options. *)

open Cmdliner
module Cli = Fd_cli.Cli

let run jobs sinks =
  let t = Fd_eval.Securibench_table.run ~jobs () in
  print_string (Fd_eval.Securibench_table.render t);
  (* list any deviations from the expected counts, for debugging *)
  List.iter
    (fun (name, v) ->
      if v.Fd_eval.Scoring.fn > 0 || v.Fd_eval.Scoring.fp > 0 then
        Printf.printf "  %-18s tp=%d fp=%d fn=%d\n" name v.Fd_eval.Scoring.tp
          v.Fd_eval.Scoring.fp v.Fd_eval.Scoring.fn)
    t.Fd_eval.Securibench_table.per_case;
  (* per-case termination states: list the cases the barrier had to
     degrade or give up on, then the overall distribution *)
  let outcomes = t.Fd_eval.Securibench_table.per_case_outcomes in
  List.iter
    (fun (name, o) ->
      if not (Fd_resilience.Outcome.is_complete o) then
        Printf.printf "  %-18s outcome: %s\n" name
          (Fd_resilience.Outcome.to_string o))
    outcomes;
  let dist =
    Fd_resilience.Outcome.tally (List.map (fun (_, o) -> (o, false)) outcomes)
  in
  Printf.printf "outcomes: %s\n"
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "%s: %d" k n) dist));
  if not (Cli.write_sinks sinks) then exit 1

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "securibench_runner"
             ~doc:"Table 2: SecuriBench-µ results for FlowDroid.")
          Term.(const run $ Cli.jobs $ Cli.sinks_no_profile)))
