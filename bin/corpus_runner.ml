(* RQ3: analyse the generated Play-profile / malware-profile corpora
   and report runtime + leak statistics. *)
open Cmdliner
module Cli = Fd_cli.Cli

let profile =
  let profile_conv =
    Arg.enum
      [ ("play", Fd_appgen.Generator.Play);
        ("malware", Fd_appgen.Generator.Malware);
        ("icc", Fd_appgen.Generator.Icc) ]
  in
  Arg.(value & opt profile_conv Fd_appgen.Generator.Malware
       & info [ "profile" ] ~doc:"Corpus profile: play, malware or icc.")

let n =
  Arg.(value & opt int 100 & info [ "n" ] ~doc:"Number of apps to generate.")

let seed =
  Arg.(value & opt int 20140609 & info [ "seed" ] ~doc:"Corpus seed.")

let run profile n seed config jobs sinks =
  Fd_obs.Metrics.reset ();
  Fd_obs.Trace.reset ();
  Fd_obs.Profile.reset ();
  (* SIGINT/SIGTERM → cooperative cancel: the per-app loop drains with
     cancelled outcome rows, the partial table prints, and we exit 4 *)
  Cli.cancel_on_signals ();
  let config = Cli.profile sinks config in
  let t = Fd_eval.Corpus.run ~config ~jobs ~profile ~seed ~n () in
  print_string (Fd_eval.Corpus.render t);
  (* per-app outcome rows for anything that did not complete cleanly *)
  List.iter
    (fun (s : Fd_eval.Corpus.app_stat) ->
      if not (Fd_resilience.Outcome.is_complete s.Fd_eval.Corpus.as_outcome)
      then
        Printf.printf "  %-24s outcome: %s\n" s.Fd_eval.Corpus.as_name
          (Fd_resilience.Outcome.to_string s.Fd_eval.Corpus.as_outcome))
    t.Fd_eval.Corpus.c_stats;
  let written = Cli.write_sinks sinks in
  Cli.drain_store_diags ();
  if Fd_resilience.Budget.cancelling_all () then begin
    prerr_endline
      "corpus_runner: interrupted — partial results above (cancelled runs \
       report outcome: cancelled)";
    4
  end
  else if written then 0
  else 1

let cmd =
  Cmd.v
    (Cmd.info "corpus_runner"
       ~doc:"RQ3 corpus analysis (generated Play/malware apps)")
    Term.(
      const run $ profile $ n $ seed
      $ Cli.config [ Cli.deadline; Cli.summary_store; Cli.targeted ]
      $ Cli.jobs $ Cli.sinks)

let () = exit (Cmd.eval' cmd)
