(** The analysis-as-a-service daemon.

    Boots {!Fd_serve.Server} on a Unix-domain socket and runs until
    SIGTERM/SIGINT or a client [drain] verb, then drains gracefully:
    stop admitting, let queued + in-flight work finish within the
    grace period, cooperatively cancel the stragglers, reply to
    everything, exit 0.  [--stats-out] writes the final [serve.*]
    metric export (atomically) on shutdown.

    [--chaos-rate]/[--chaos-seed] arm service-level fault injection:
    worker-killing faults at request pickup (exercising supervision)
    and solver-step faults through each request's budget (exercising
    the degradation ladder). *)

open Cmdliner
module Cli = Fd_cli.Cli
module Server = Fd_serve.Server

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/flowdroid.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on.")

let workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~doc:"Analysis worker domains.")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~doc:"Admission queue capacity; beyond it requests \
                             are rejected immediately with retry_after_ms.")

let deadline_arg =
  Arg.(
    value & opt float 30.
    & info [ "deadline-s" ] ~doc:"Default per-request wall-clock deadline.")

let max_frame_arg =
  Arg.(
    value
    & opt int Fd_serve.Protocol.default_max_frame
    & info [ "max-frame-bytes" ]
        ~doc:"Reject (but consume) request frames larger than this.")

let grace_arg =
  Arg.(
    value & opt float 5.
    & info [ "drain-grace-s" ]
        ~doc:"Drain allowance before in-flight budgets are cancelled.")

let chaos_rate_arg =
  Arg.(
    value & opt float 0.
    & info [ "chaos-rate" ]
        ~doc:"Service-level fault injection rate (0 disables).")

let chaos_seed_arg =
  Arg.(value & opt int 42 & info [ "chaos-seed" ] ~doc:"Fault-injection seed.")

let stats_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-out" ] ~docv:"FILE"
        ~doc:"Write the final metrics export here on shutdown (\"-\" for \
              stdout).")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No startup banner.")

let run socket workers queue deadline max_frame grace chaos_rate chaos_seed
    base_config stats_out quiet =
  let cfg =
    {
      (Server.default_config ~socket) with
      Server.sv_workers = workers;
      sv_queue_capacity = queue;
      sv_max_frame_bytes = max_frame;
      sv_drain_grace_s = grace;
      sv_chaos_rate = chaos_rate;
      sv_chaos_seed = chaos_seed;
      sv_base_config =
        { base_config with Fd_core.Config.deadline_s = Some deadline };
    }
  in
  let server =
    try Server.start cfg
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "flowdroid_serve: cannot bind %s: %s\n%!" socket
        (Unix.error_message e);
      exit 2
  in
  if not quiet then
    Printf.printf
      "flowdroid_serve: listening on %s (%d workers, queue %d%s)\n%!" socket
      workers queue
      (if chaos_rate > 0. then Printf.sprintf ", chaos %.2f" chaos_rate else "");
  let stop_requested = Atomic.make false in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  Sys.set_signal Sys.sigterm on_signal;
  Sys.set_signal Sys.sigint on_signal;
  (* park until a signal or a protocol-initiated drain *)
  while not (Atomic.get stop_requested || Server.draining server) do
    Thread.delay 0.2
  done;
  if not quiet then
    Printf.printf "flowdroid_serve: draining (queue=%d in-flight=%d)\n%!"
      (Server.queue_depth server) (Server.in_flight server);
  Server.stop server;
  (match stats_out with
  | Some path ->
      Fd_obs.Export.write_stats_json
        ~extra:[ ("binary", Fd_obs.Json.String "flowdroid_serve") ]
        ~path ()
  | None -> ());
  if not quiet then print_endline "flowdroid_serve: stopped";
  0

let cmd =
  Cmd.v
    (Cmd.info "flowdroid_serve"
       ~doc:"Fault-tolerant taint-analysis daemon over a Unix socket"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "$(b,--summary-store) and $(b,--targeted) set the base \
              configuration of every request; a request's own \
              \"targeted\" field overrides $(b,--targeted).";
         ])
    Term.(
      const run $ socket_arg $ workers_arg $ queue_arg $ deadline_arg
      $ max_frame_arg $ grace_arg $ chaos_rate_arg $ chaos_seed_arg
      $ Cli.config [ Cli.summary_store; Cli.targeted ]
      $ stats_out_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
