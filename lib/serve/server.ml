(** The daemon core (see the .mli for the architecture overview).

    Concurrency layout:

    - one {e accept} systhread multiplexing on the listening socket
      with a short select timeout so shutdown is observed promptly;
    - one systhread {e per connection} reading frames; immediate verbs
      (ping/health/stats/drain, rejections) reply inline, analyze
      requests are pushed onto the bounded work queue;
    - [sv_workers] {e worker domains} popping the queue; each attempt
      runs under {!Fd_resilience.Barrier} with a fresh per-request
      {!Fd_resilience.Budget};
    - one {e supervisor} systhread consuming worker-death events,
      respawning the dead domain and re-admitting its request.

    Exactly-one-reply is enforced with an [Atomic.compare_and_set] on
    the request's replied flag; the connection write side is guarded
    by a per-connection mutex plus a pending-reply refcount so a
    worker can never write to (or a reader close) a file descriptor
    that has been recycled. *)

module Json = Fd_obs.Json
module Metrics = Fd_obs.Metrics
module Budget = Fd_resilience.Budget
module Barrier = Fd_resilience.Barrier
module Chaos = Fd_resilience.Chaos
module Outcome = Fd_resilience.Outcome
module Apk = Fd_frontend.Apk
module Gen = Fd_appgen.Generator
module Config = Fd_core.Config
module Infoflow = Fd_core.Infoflow

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_requests = Metrics.counter "serve.requests"
let m_replies = Metrics.counter "serve.replies"
let m_overloaded = Metrics.counter "serve.rejected_overloaded"
let m_draining_rejects = Metrics.counter "serve.rejected_draining"
let m_bad_requests = Metrics.counter "serve.bad_requests"
let m_retries = Metrics.counter "serve.retries"
let m_worker_restarts = Metrics.counter "serve.worker_restarts"
let m_client_gone = Metrics.counter "serve.client_gone"
let m_out_precise = Metrics.counter "serve.outcome.precise"
let m_out_degraded = Metrics.counter "serve.outcome.degraded"
let m_out_partial = Metrics.counter "serve.outcome.partial"
let m_out_failed = Metrics.counter "serve.outcome.failed"
let m_out_cancelled = Metrics.counter "serve.outcome.cancelled"
let g_queue_depth = Metrics.gauge "serve.queue_depth"
let g_in_flight = Metrics.gauge "serve.in_flight"
let h_request = Metrics.histogram "serve.request_seconds"
let h_queue_wait = Metrics.histogram "serve.queue_wait_seconds"
let h_solve = Metrics.histogram "serve.solve_seconds"

(* ------------------------------------------------------------------ *)
(* configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  sv_socket : string;
  sv_workers : int;
  sv_queue_capacity : int;
  sv_max_frame_bytes : int;
  sv_drain_grace_s : float;
  sv_chaos_rate : float;
  sv_chaos_seed : int;
  sv_base_config : Config.t;
  sv_attempt_hook : (string -> int -> unit) option;
}

let default_config ~socket =
  {
    sv_socket = socket;
    sv_workers = 2;
    sv_queue_capacity = 64;
    sv_max_frame_bytes = Protocol.default_max_frame;
    sv_drain_grace_s = 5.;
    sv_chaos_rate = 0.;
    sv_chaos_seed = 42;
    sv_base_config = { Config.default with Config.deadline_s = Some 30. };
    sv_attempt_hook = None;
  }

(* ------------------------------------------------------------------ *)
(* connections                                                         *)
(* ------------------------------------------------------------------ *)

(* The reader thread closes the fd only once it has seen EOF *and* no
   reply is pending anymore; workers holding a reply capability keep
   the connection alive via [c_pending].  Without this refcount a
   slow worker could write into a recycled descriptor. *)
type conn = {
  c_fd : Unix.file_descr;
  c_wlock : Mutex.t;  (** serialises frame writes *)
  c_lock : Mutex.t;  (** guards the three fields below *)
  mutable c_pending : int;
  mutable c_eof : bool;
  mutable c_closed : bool;
}

let conn_make fd =
  {
    c_fd = fd;
    c_wlock = Mutex.create ();
    c_lock = Mutex.create ();
    c_pending = 0;
    c_eof = false;
    c_closed = false;
  }

let conn_close_if_done c =
  (* caller holds c_lock *)
  if c.c_eof && c.c_pending = 0 && not c.c_closed then begin
    c.c_closed <- true;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

let conn_reserve c =
  Mutex.lock c.c_lock;
  c.c_pending <- c.c_pending + 1;
  Mutex.unlock c.c_lock

let conn_send c v =
  Mutex.lock c.c_wlock;
  (try Protocol.write_frame c.c_fd v
   with Unix.Unix_error _ | Sys_error _ ->
     (* the client hung up before its reply; the work is already done
        and accounted, only the delivery is lost *)
     Metrics.incr m_client_gone);
  Mutex.unlock c.c_wlock;
  Mutex.lock c.c_lock;
  c.c_pending <- c.c_pending - 1;
  conn_close_if_done c;
  Mutex.unlock c.c_lock

let conn_send_now c v =
  conn_reserve c;
  conn_send c v

(* ------------------------------------------------------------------ *)
(* requests                                                            *)
(* ------------------------------------------------------------------ *)

type req = {
  q_serial : int;
  q_name : string;
  q_spec : Protocol.analyze;
  q_ladder : (string * Config.t) array;  (** rung i serves attempt i+1 *)
  q_chaos : Chaos.t option;  (** solver-step faults, full chaos rate *)
  q_chaos_kill : Chaos.t option;
      (** worker-kill faults at pickup; drawn at a quarter of the
          chaos rate — domain deaths are whole-process events (a
          respawn stalls every domain), so the harness weights them
          lower than solver-step faults *)
  q_conn : conn;
  q_submitted : float;
  mutable q_first_pickup : float;  (** 0. until first dequeue *)
  mutable q_attempt : int;  (** attempts started *)
  mutable q_attempts_log : (string * string * float) list;
      (** (rung label, outcome, seconds), latest first *)
  mutable q_not_before : float;  (** retry backoff gate *)
  mutable q_partial : (string * Infoflow.result) option;
      (** best incomplete result so far, kept for the partial reply *)
  mutable q_diags : string list;  (** accumulated, latest first *)
  q_budget : Budget.t option Atomic.t;  (** live budget, for drain *)
  q_replied : bool Atomic.t;
}

type event = E_worker_died of { slot : int; req : req option; msg : string }

type phase = Running | Draining | Stopping

type t = {
  t_cfg : config;
  t_queue : req Squeue.t;
  t_events : event Squeue.t;
  t_phase : int Atomic.t;  (** 0 running / 1 draining / 2 stopping *)
  t_serial : int Atomic.t;
  t_started : float;
  t_listen : Unix.file_descr;
  t_inflight : req option Atomic.t array;
  t_domains : unit Domain.t option array;
  t_dom_lock : Mutex.t;  (** guards t_domains (start/supervisor/stop) *)
  mutable t_accept : Thread.t option;
  mutable t_supervisor : Thread.t option;
  t_stop_lock : Mutex.t;
  mutable t_stopped : bool;
}

let phase t : phase =
  match Atomic.get t.t_phase with 0 -> Running | 1 -> Draining | _ -> Stopping

let draining t = phase t <> Running
let running t = not (Atomic.get t.t_phase = 2 && t.t_stopped)
let queue_depth t = Squeue.length t.t_queue

let in_flight t =
  Array.fold_left
    (fun n slot -> match Atomic.get slot with Some _ -> n + 1 | None -> n)
    0 t.t_inflight

let publish_gauges t =
  Metrics.set_int g_queue_depth (queue_depth t);
  Metrics.set_int g_in_flight (in_flight t)

(* mean observed service time × queue position ÷ workers, clamped to
   [50 ms, 10 s] — a rough but monotone backpressure hint.  The
   per-request estimate is clamped into [0.05 s, 10 s] BEFORE any
   arithmetic: on a freshly-booted daemon the histogram is empty (or
   holds a single degenerate 0/NaN sample) and an unclamped mean would
   poison the product below. *)
let retry_after_ms t =
  let per_request =
    match Metrics.histogram_summary "serve.request_seconds" with
    | Some hs when hs.Metrics.hs_count > 0 ->
        hs.Metrics.hs_sum /. float_of_int hs.Metrics.hs_count
    | _ -> 0.1
  in
  let per_request =
    if Float.is_nan per_request then 0.1
    else Float.min 10. (Float.max 0.05 per_request)
  in
  let est =
    per_request
    *. float_of_int (queue_depth t + 1)
    /. float_of_int (max 1 t.t_cfg.sv_workers)
  in
  int_of_float (Float.min 10_000. (Float.max 50. (est *. 1000.)))

(* ------------------------------------------------------------------ *)
(* replies                                                             *)
(* ------------------------------------------------------------------ *)

(* [observe:false] keeps admission rejections out of the service-time
   histogram, which feeds the [retry_after_ms] estimate *)
let reply_once ?(observe = true) req v =
  if Atomic.compare_and_set req.q_replied false true then begin
    conn_send req.q_conn v;
    Metrics.incr m_replies;
    if observe then
      Metrics.observe h_request (Unix.gettimeofday () -. req.q_submitted);
    true
  end
  else false

let json_of_attempts req =
  Json.List
    (List.rev_map
       (fun (rung, outcome, dt) ->
         Json.Obj
           [
             ("rung", Json.String rung);
             ("outcome", Json.String outcome);
             ("seconds", Json.Float dt);
           ])
       req.q_attempts_log)

let json_of_diags req extra =
  let result_diags =
    List.map (fun d -> Fd_resilience.Diag.to_string d) extra
  in
  Json.List
    (List.map (fun s -> Json.String s) (result_diags @ List.rev req.q_diags))

let json_of_finding (f : Fd_core.Bidi.finding) =
  Json.Obj
    ([
       ( "category",
         Json.String
           (Fd_frontend.Sourcesink.string_of_category f.f_source.si_category)
       );
       ("source", Json.String f.f_source.si_desc);
       ( "sink",
         Json.String (Fd_callgraph.Icfg.string_of_node f.f_sink_node) );
       ( "sink_category",
         Json.String (Fd_frontend.Sourcesink.string_of_category f.f_sink_cat)
       );
     ]
    @ match f.f_sink_tag with
      | Some tag -> [ ("tag", Json.String tag) ]
      | None -> [])

let base_fields req =
  ("app", Json.String req.q_name)
  :: ("attempts", json_of_attempts req)
  :: ( "queue_ms",
       Json.Int
         (int_of_float
            ((if req.q_first_pickup > 0. then req.q_first_pickup
              else Unix.gettimeofday ())
             -. req.q_submitted
            |> ( *. ) 1000.)) )
  :: []

let reply_result t req completeness (r : Infoflow.result) =
  let stats = r.Infoflow.r_stats in
  let fields =
    base_fields req
    @ [
        ("outcome", Json.String (Outcome.to_string stats.Infoflow.st_outcome));
        ( "completeness",
          Json.String (Infoflow.string_of_completeness completeness) );
        ("flows", Json.List (List.map json_of_finding r.Infoflow.r_findings));
        ("findings", Json.Int (List.length r.Infoflow.r_findings));
        ("reachable", Json.Int stats.Infoflow.st_reachable);
        ("propagations", Json.Int stats.Infoflow.st_propagations);
        ("solve_ms", Json.Int (int_of_float (stats.Infoflow.st_time *. 1000.)));
        ( "time_ms",
          Json.Int
            (int_of_float
               ((Unix.gettimeofday () -. req.q_submitted) *. 1000.)) );
        ("diags", json_of_diags req r.Infoflow.r_diags);
      ]
  in
  let ok = reply_once req (Protocol.resp_ok ?id:req.q_spec.rq_id fields) in
  if ok then begin
    Metrics.incr
      (match completeness with
      | Infoflow.Precise -> m_out_precise
      | Infoflow.Degraded _ -> m_out_degraded
      | Infoflow.Partial _ -> m_out_partial);
    publish_gauges t
  end

let reply_error t req ~code ?(fields = []) msg =
  let ok =
    reply_once req
      (Protocol.resp_error ?id:req.q_spec.rq_id
         ~fields:(base_fields req @ [ ("diags", json_of_diags req []) ] @ fields)
         ~code msg)
  in
  if ok then begin
    (match code with
    | "overloaded" -> Metrics.incr m_overloaded
    | "cancelled" -> Metrics.incr m_out_cancelled
    | _ -> Metrics.incr m_out_failed);
    publish_gauges t
  end

(* terminal failure: prefer the best partial result we banked *)
let reply_failure t req =
  match req.q_partial with
  | Some (rung, r) ->
      reply_result t req (Infoflow.Partial rung) r
  | None ->
      reply_error t req ~code:"failed"
        (Printf.sprintf "analysis failed after %d attempt(s)" req.q_attempt)

(* ------------------------------------------------------------------ *)
(* request admission                                                   *)
(* ------------------------------------------------------------------ *)

let build_req t conn (a : Protocol.analyze) =
  let cfg = t.t_cfg in
  match (a.rq_deadline_ms, Config.decode cfg.sv_base_config a.rq_options) with
  | Some ms, _ when ms < 1 -> Error "deadline_ms must be >= 1"
  | _, Error msg -> Error msg
  | deadline_ms, Ok config ->
      (* the store's config digest covers every option a request sets,
         so hot entries never cross between requests that differ *)
      let config =
        match deadline_ms with
        | Some ms ->
            let deadline_s = Some (float_of_int ms /. 1000.) in
            { config with Config.deadline_s }
        | None -> config
      in
      let serial = Atomic.fetch_and_add t.t_serial 1 in
      (* per-request chaos PRNGs seeded from (server seed, serial):
         worker domains never share mutable chaos state *)
      let chaos_at rate salt =
        if rate > 0. then
          Some
            (Chaos.create
               ~seed:
                 (Fd_util.Intern.combine
                    (Fd_util.Intern.combine cfg.sv_chaos_seed salt)
                    serial)
               ~rate)
        else None
      in
      let chaos = chaos_at cfg.sv_chaos_rate 1 in
      let chaos_kill = chaos_at (cfg.sv_chaos_rate /. 4.) 2 in
      Ok
        {
          q_serial = serial;
          q_name =
            String.concat "+"
              (List.map Protocol.app_name (a.rq_app :: a.rq_apps));
          q_spec = a;
          q_ladder = Array.of_list (Config.degradation_ladder config);
          q_chaos = chaos;
          q_chaos_kill = chaos_kill;
          q_conn = conn;
          q_submitted = Unix.gettimeofday ();
          q_first_pickup = 0.;
          q_attempt = 0;
          q_attempts_log = [];
          q_not_before = 0.;
          q_partial = None;
          q_diags = [];
          q_budget = Atomic.make None;
          q_replied = Atomic.make false;
        }

(* ------------------------------------------------------------------ *)
(* workers                                                             *)
(* ------------------------------------------------------------------ *)

let realize_one (spec : Protocol.app_spec) ~mode =
  match spec with
  | Protocol.App_dir d -> Apk.of_dir ~mode d
  | Protocol.App_inline i ->
      Apk.make_text ~mode i.Protocol.in_name ~manifest:i.Protocol.in_manifest
        ~layouts:i.Protocol.in_layouts i.Protocol.in_sources
  | Protocol.App_gen { g_profile; g_seed; g_index } ->
      (Gen.generate ~profile:g_profile ~seed:g_seed g_index).Gen.ga_apk

let rung_for req attempt =
  req.q_ladder.(min (attempt - 1) (Array.length req.q_ladder - 1))

(* two attempts: the request's own config, then one retry on the next
   rung.  The retry waits 10 ms after a failed attempt, or 5 ms when a
   worker died at pickup before the first attempt started *)
let max_attempts = 2

let retry_or_fail t req =
  if phase t = Running && req.q_attempt < max_attempts then begin
    let backoff = if req.q_attempt = 0 then 0.005 else 0.01 in
    req.q_not_before <- Unix.gettimeofday () +. backoff;
    Metrics.incr m_retries;
    (* push_front: an admitted request's retry must not be bounced by
       admission control (it would be dropped without a reply), and it
       goes ahead of fresh arrivals — the request already lost an
       attempt, requeueing it at the back would double its tail
       latency *)
    Squeue.push_front t.t_queue req;
    if Squeue.closed t.t_queue then reply_failure t req
  end
  else reply_failure t req

let log_attempt req rung outcome dt =
  req.q_attempts_log <- (rung, outcome, dt) :: req.q_attempts_log

(* one attempt: consume rung [q_attempt+1], run under barrier+budget *)
let process t req =
  if phase t = Stopping then
    reply_error t req ~code:"cancelled"
      "server stopped before the request ran"
  else begin
    let attempt = req.q_attempt + 1 in
    req.q_attempt <- attempt;
    (* test seam / supervision chaos: a raise here escapes to the
       worker loop and kills this domain *)
    (match t.t_cfg.sv_attempt_hook with
    | Some hook -> hook req.q_name attempt
    | None -> ());
    let rung, cfg = rung_for req attempt in
    let mode = if req.q_spec.rq_strict then `Strict else `Lenient in
    let budget = Config.budget ?chaos:req.q_chaos cfg in
    Atomic.set req.q_budget (Some budget);
    let t0 = Unix.gettimeofday () in
    let run () =
      (* one app, or a batch loaded as one merged multi-app Scene (the
         inter-app setting); a load failure is the client's fault *)
      match
        Apk.load_merged ~mode
          (List.map
             (fun spec -> realize_one spec ~mode)
             (req.q_spec.Protocol.rq_app :: req.q_spec.Protocol.rq_apps))
      with
      | exception Apk.Load_error msg -> `Bad msg
      | m -> `Res (Infoflow.analyze_merged ~config:cfg ~budget m)
    in
    let res = Barrier.protect ~label:(req.q_name ^ "/" ^ rung) run in
    let dt = Unix.gettimeofday () -. t0 in
    Atomic.set req.q_budget None;
    Metrics.observe h_solve dt;
    let failed_attempt outcome =
      let outcome = Outcome.to_string outcome in
      log_attempt req rung outcome dt;
      req.q_diags <-
        Printf.sprintf "attempt %d (%s): %s" attempt rung outcome
        :: req.q_diags;
      retry_or_fail t req
    in
    match res with
    | Ok (`Bad msg) ->
        (* a malformed app is the client's fault: no retry *)
        log_attempt req rung "load-error" dt;
        Metrics.incr m_bad_requests;
        reply_error t req ~code:"bad-app" msg
    | Ok (`Res r) when Outcome.is_complete r.r_stats.st_outcome ->
        log_attempt req rung (Outcome.to_string r.r_stats.st_outcome) dt;
        reply_result t req
          (if attempt = 1 then Infoflow.Precise else Infoflow.Degraded rung)
          r
    | Ok (`Res r) ->
        (* keep the most recent partial result for the final reply *)
        req.q_partial <- Some (rung, r);
        failed_attempt r.r_stats.st_outcome
    | Error outcome -> failed_attempt outcome
  end

let rec worker_loop t slot =
  match Squeue.pop t.t_queue with
  | None -> ()
  | Some req ->
      Atomic.set t.t_inflight.(slot) (Some req);
      publish_gauges t;
      if req.q_first_pickup = 0. then begin
        req.q_first_pickup <- Unix.gettimeofday ();
        Metrics.observe h_queue_wait (req.q_first_pickup -. req.q_submitted)
      end;
      (* retry backoff: sleep off the remaining gate *)
      let delay = req.q_not_before -. Unix.gettimeofday () in
      if delay > 0. then Unix.sleepf delay;
      (* service-level chaos outside the barrier: this kills the
         worker domain and exercises the supervisor *)
      Chaos.fail_point req.q_chaos_kill "serve.worker";
      process t req;
      (* nothing reads a worker's spans; without this its trace store
         would keep every span of every request it has served *)
      Fd_obs.Trace.reset_domain ();
      Atomic.set t.t_inflight.(slot) None;
      publish_gauges t;
      worker_loop t slot

let worker_main t slot () =
  try worker_loop t slot
  with e ->
    let req = Atomic.exchange t.t_inflight.(slot) None in
    publish_gauges t;
    Squeue.push_force t.t_events
      (E_worker_died { slot; req; msg = Printexc.to_string e })

let spawn_worker t slot =
  Mutex.lock t.t_dom_lock;
  (* re-check the phase under the lock: [stop] sets Stopping before it
     takes the lock to join, so no domain can be spawned behind its
     back and left unjoined *)
  if Atomic.get t.t_phase < 2 then begin
    (match t.t_domains.(slot) with
    | Some d ->
        (* the previous incarnation already pushed its death event and
           is returning; join releases the domain slot *)
        Domain.join d
    | None -> ());
    t.t_domains.(slot) <- Some (Domain.spawn (worker_main t slot))
  end;
  Mutex.unlock t.t_dom_lock

let rec supervisor_loop t =
  match Squeue.pop t.t_events with
  | None -> ()
  | Some (E_worker_died { slot; req; msg }) ->
      Metrics.incr m_worker_restarts;
      if Atomic.get t.t_phase < 2 then spawn_worker t slot;
      (match req with
      | Some req when not (Atomic.get req.q_replied) ->
          req.q_diags <-
            Printf.sprintf "attempt %d: worker died: %s" req.q_attempt msg
            :: req.q_diags;
          retry_or_fail t req
      | _ -> ());
      supervisor_loop t

(* ------------------------------------------------------------------ *)
(* health / stats                                                      *)
(* ------------------------------------------------------------------ *)

let health_fields t =
  [
    ("phase", Json.String (match phase t with
                           | Running -> "running"
                           | Draining -> "draining"
                           | Stopping -> "stopping"));
    ("uptime_s", Json.Float (Unix.gettimeofday () -. t.t_started));
    ("workers", Json.Int t.t_cfg.sv_workers);
    ("queue_depth", Json.Int (queue_depth t));
    ("queue_capacity", Json.Int (Squeue.capacity t.t_queue));
    ("in_flight", Json.Int (in_flight t));
    ("requests", Json.Int (Metrics.value m_requests));
    ("replies", Json.Int (Metrics.value m_replies));
    ("worker_restarts", Json.Int (Metrics.value m_worker_restarts));
  ]

let quantiles_json name =
  match Metrics.histogram_summary name with
  | Some hs when hs.Metrics.hs_count > 0 ->
      Json.Obj
        [
          ("count", Json.Int hs.Metrics.hs_count);
          ("p50_ms", Json.Float (hs.Metrics.hs_p50 *. 1000.));
          ("p90_ms", Json.Float (hs.Metrics.hs_p90 *. 1000.));
          ("p99_ms", Json.Float (hs.Metrics.hs_p99 *. 1000.));
          ("max_ms", Json.Float (hs.Metrics.hs_max *. 1000.));
        ]
  | _ -> Json.Obj [ ("count", Json.Int 0) ]

let stats_fields t =
  health_fields t
  @ [
      ( "outcomes",
        Json.Obj
          [
            ("precise", Json.Int (Metrics.value m_out_precise));
            ("degraded", Json.Int (Metrics.value m_out_degraded));
            ("partial", Json.Int (Metrics.value m_out_partial));
            ("failed", Json.Int (Metrics.value m_out_failed));
            ("cancelled", Json.Int (Metrics.value m_out_cancelled));
            ("overloaded", Json.Int (Metrics.value m_overloaded));
            ("bad_requests", Json.Int (Metrics.value m_bad_requests));
          ] );
      ("retries", Json.Int (Metrics.value m_retries));
      ("client_gone", Json.Int (Metrics.value m_client_gone));
      ("latency", quantiles_json "serve.request_seconds");
      ("queue_wait", quantiles_json "serve.queue_wait_seconds");
      ("solve", quantiles_json "serve.solve_seconds");
    ]

(* ------------------------------------------------------------------ *)
(* connection handling                                                 *)
(* ------------------------------------------------------------------ *)

let drain t =
  if Atomic.compare_and_set t.t_phase 0 1 then
    Logs.info ~src:Infoflow.log_src (fun m ->
        m "serve: draining (queue=%d in-flight=%d)" (queue_depth t)
          (in_flight t))

let handle_analyze t conn (a : Protocol.analyze) =
  Metrics.incr m_requests;
  if phase t <> Running then begin
    Metrics.incr m_draining_rejects;
    conn_send_now conn
      (Protocol.resp_error ?id:a.rq_id ~code:"draining"
         "server is draining; not admitting new work")
  end
  else
    match build_req t conn a with
    | Error msg ->
        Metrics.incr m_bad_requests;
        conn_send_now conn
          (Protocol.resp_error ?id:a.rq_id ~code:"bad-request" msg)
    | Ok req ->
        (* reserve the reply slot before the queue can hand the request
           to a worker *)
        conn_reserve conn;
        if Squeue.try_push t.t_queue req then publish_gauges t
        else begin
          let wait = retry_after_ms t in
          ignore
            (reply_once ~observe:false req
               (Protocol.resp_error ?id:a.rq_id ~code:"overloaded"
                  ~fields:[ ("retry_after_ms", Json.Int wait) ]
                  "work queue full"));
          Metrics.incr m_overloaded
        end

let handle_frame t conn v =
  let id = Json.member "id" v in
  let reply_ok fields = conn_send_now conn (Protocol.resp_ok ?id fields) in
  match Protocol.request_of_json v with
  | Error msg ->
      Metrics.incr m_bad_requests;
      conn_send_now conn (Protocol.resp_error ?id ~code:"bad-request" msg)
  | Ok Protocol.Ping -> reply_ok [ ("verb", Json.String "pong") ]
  | Ok Protocol.Health -> reply_ok (health_fields t)
  | Ok Protocol.Stats -> reply_ok (stats_fields t)
  | Ok Protocol.Drain ->
      drain t;
      reply_ok [ ("draining", Json.Bool true) ]
  | Ok (Protocol.Analyze a) -> handle_analyze t conn a

let conn_loop t conn =
  let rec loop () =
    match Protocol.read_frame ~max_bytes:t.t_cfg.sv_max_frame_bytes conn.c_fd with
    | None -> ()
    | Some v ->
        handle_frame t conn v;
        loop ()
    | exception Protocol.Closed -> ()
    | exception Unix.Unix_error _ -> ()
    | exception Protocol.Oversized n ->
        Metrics.incr m_bad_requests;
        conn_send_now conn
          (Protocol.resp_error ~code:"oversized"
             ~fields:
               [
                 ("bytes", Json.Int n);
                 ("max_bytes", Json.Int t.t_cfg.sv_max_frame_bytes);
               ]
             "frame exceeds the server's limit");
        loop ()
    | exception Json.Parse_error _ ->
        Metrics.incr m_bad_requests;
        conn_send_now conn
          (Protocol.resp_error ~code:"bad-json" "unparsable request frame");
        loop ()
  in
  loop ();
  Mutex.lock conn.c_lock;
  conn.c_eof <- true;
  conn_close_if_done conn;
  Mutex.unlock conn.c_lock

let accept_loop t =
  let rec loop () =
    if Atomic.get t.t_phase < 2 then begin
      (match Unix.select [ t.t_listen ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.t_listen with
          | fd, _ ->
              let conn = conn_make fd in
              ignore (Thread.create (fun () -> conn_loop t conn) ())
          | exception
              Unix.Unix_error
                ((EINTR | EAGAIN | EWOULDBLOCK | ECONNABORTED), _, _) ->
              ())
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      loop ()
    end
  in
  try loop () with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start cfg =
  if cfg.sv_workers < 1 then invalid_arg "Server.start: sv_workers < 1";
  (* a client vanishing mid-write must never signal the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Infoflow.warm_templates ();
  (try Unix.unlink cfg.sv_socket with Unix.Unix_error _ -> ());
  let listen = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try
     Unix.bind listen (ADDR_UNIX cfg.sv_socket);
     Unix.listen listen 64
   with e ->
     (try Unix.close listen with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      t_cfg = cfg;
      t_queue = Squeue.create ~capacity:cfg.sv_queue_capacity;
      t_events = Squeue.create ~capacity:(max 16 (2 * cfg.sv_workers));
      t_phase = Atomic.make 0;
      t_serial = Atomic.make 0;
      t_started = Unix.gettimeofday ();
      t_listen = listen;
      t_inflight = Array.init cfg.sv_workers (fun _ -> Atomic.make None);
      t_domains = Array.make cfg.sv_workers None;
      t_dom_lock = Mutex.create ();
      t_accept = None;
      t_supervisor = None;
      t_stop_lock = Mutex.create ();
      t_stopped = false;
    }
  in
  for slot = 0 to cfg.sv_workers - 1 do
    spawn_worker t slot
  done;
  t.t_supervisor <- Some (Thread.create supervisor_loop t);
  t.t_accept <- Some (Thread.create accept_loop t);
  Logs.info ~src:Infoflow.log_src (fun m ->
      m "serve: listening on %s (%d workers, queue %d)" cfg.sv_socket
        cfg.sv_workers cfg.sv_queue_capacity);
  t

let idle t = queue_depth t = 0 && in_flight t = 0

let wait_until ~deadline pred =
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let stop ?grace_s t =
  Mutex.lock t.t_stop_lock;
  let already = t.t_stopped in
  t.t_stopped <- true;
  Mutex.unlock t.t_stop_lock;
  if not already then begin
    let grace = Option.value grace_s ~default:t.t_cfg.sv_drain_grace_s in
    drain t;
    let drained =
      wait_until ~deadline:(Unix.gettimeofday () +. grace) (fun () -> idle t)
    in
    (* past the grace period: switch to Stopping so retries stop
       requeueing and queued-but-unstarted work replies [cancelled],
       then cancel in-flight budgets cooperatively *)
    Atomic.set t.t_phase 2;
    if not drained then
      Array.iter
        (fun slot ->
          match Atomic.get slot with
          | Some req -> (
              match Atomic.get req.q_budget with
              | Some b -> Budget.cancel b
              | None -> ())
          | None -> ())
        t.t_inflight;
    (* cancellation is cooperative; give the stragglers a moment, then
       close the queue so workers exit once it is empty *)
    ignore
      (wait_until ~deadline:(Unix.gettimeofday () +. grace +. 10.) (fun () ->
           idle t));
    Squeue.close t.t_queue;
    Mutex.lock t.t_dom_lock;
    Array.iteri
      (fun slot d ->
        match d with
        | Some d ->
            Domain.join d;
            t.t_domains.(slot) <- None
        | None -> ())
      t.t_domains;
    Mutex.unlock t.t_dom_lock;
    Squeue.close t.t_events;
    (match t.t_supervisor with Some th -> Thread.join th | None -> ());
    (match t.t_accept with Some th -> Thread.join th | None -> ());
    (try Unix.close t.t_listen with Unix.Unix_error _ -> ());
    (try Unix.unlink t.t_cfg.sv_socket with Unix.Unix_error _ -> ());
    publish_gauges t;
    Logs.info ~src:Infoflow.log_src (fun m ->
        m "serve: stopped (replies=%d restarts=%d)" (Metrics.value m_replies)
          (Metrics.value m_worker_restarts))
  end
