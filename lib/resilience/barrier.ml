(** Crash isolation for batch runners (see the .mli). *)

let m_crashes = Fd_obs.Metrics.counter "resilience.crashes_caught"
let m_retries = Fd_obs.Metrics.counter "resilience.retries"

(* the post-mortem a solve handed over with the exception it
   re-raised; only that same exception, compared physically, takes it,
   and taking it empties the slot, so each post-mortem is reported
   once and never attached to a later, unrelated crash *)
let handed : (exn * string) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let reraise ~post_mortem exn bt =
  Domain.DLS.set handed (Some (exn, post_mortem));
  Printexc.raise_with_backtrace exn bt

let message label exn =
  let base =
    match exn with
    | Chaos.Fault site -> Printf.sprintf "injected fault at %s" site
    | e -> Printexc.to_string e
  in
  let flight =
    match Domain.DLS.get handed with
    | Some (e, post_mortem) when e == exn ->
        Domain.DLS.set handed None;
        Printf.sprintf " [flight: %s]" post_mortem
    | _ -> ""
  in
  Printf.sprintf "%s: %s%s" label base flight

let protect ~label f =
  match f () with
  | v -> Ok v
  | exception Stack_overflow ->
      Fd_obs.Metrics.incr m_crashes;
      Error (Outcome.Crashed (message label Stack_overflow))
  | exception e ->
      Fd_obs.Metrics.incr m_crashes;
      Error (Outcome.Crashed (message label e))

let protect_with_retry ~label f ~retry =
  match protect ~label f with
  | Ok v -> Ok v
  | Error first -> (
      Fd_obs.Metrics.incr m_retries;
      match protect ~label:(label ^ " (retry)") retry with
      | Ok v -> Ok v
      | Error _ ->
          (* report the first failure: the retry ran degraded, its
             crash is secondary *)
          Error first)
