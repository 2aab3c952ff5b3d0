(* Load generator for the serve daemon (bench/check_serve.sh gate).

   Boots a fresh flowdroid_serve.exe daemon process per phase and
   fires a few hundred generated apps at it from concurrent client
   lanes, with a planted adversarial tail: hang-like inputs (1 ms deadlines that blow every
   rung), crashing inputs (malformed strict-mode bundles) and
   oversized frames.  Phases cover {chaos off, chaos on} at each
   requested concurrency level.

   Measures, per phase: replies vs requests sent (the exactly-one-
   reply invariant — a missing reply surfaces as `dropped`), client-
   observed latency p50/p99, per-outcome counts, worker restarts and
   retries (counter deltas).  After the first phase it measures the
   warm per-request cost on the live daemon and compares against cold
   per-process runs (`--cold-probe` re-executes this binary so each
   sample pays frontend + framework template construction from
   scratch).

   Gates (exit 1 when any fails):
     (a) zero requests dropped without a reply, every phase;
     (b) warm mean >= WARM_FACTOR x faster than cold mean (default 3);
     (c) chaos-on p99 <= RATIO x chaos-off p99 per level (default 2).

   Writes the JSON report to --out (default BENCH_serve.json). *)

open Cmdliner
module Json = Fd_obs.Json
module Gen = Fd_appgen.Generator
module Client = Fd_serve.Client
module Protocol = Fd_serve.Protocol
module Squeue = Fd_serve.Squeue

type opts = {
  apps_per_phase : int;
  concurrency : int list;
  seed : int;
  chaos_rate : float;
  out_path : string;
  warm_factor : float;
  p99_ratio_limit : float;
  cold_samples : int;
  warm_lanes : int;
  serve_exe : string;
}

let warm_samples = 200
let phase_timeout_s = 180.

(* ---------------- daemon process control ---------------- *)

let boot_daemon o ~socket ~chaos =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let argv =
    [|
      o.serve_exe; "--socket"; socket; "--workers"; "4"; "--queue"; "32";
      "--max-frame-bytes"; string_of_int (256 * 1024); "--deadline-s"; "10";
      "--chaos-rate"; string_of_float chaos; "--chaos-seed";
      string_of_int o.seed; "-q";
    |]
  in
  let pid =
    Unix.create_process o.serve_exe argv Unix.stdin Unix.stdout Unix.stderr
  in
  (* the daemon warms its templates before listening; wait for the
     socket to answer *)
  let deadline = Unix.gettimeofday () +. 30. in
  let rec await () =
    match Client.connect socket with
    | c ->
        Client.close c;
        pid
    | exception Unix.Unix_error _ ->
        if Unix.gettimeofday () >= deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          failwith ("daemon did not come up on " ^ socket)
        end;
        Thread.delay 0.05;
        await ()
  in
  await ()

let daemon_alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* graceful shutdown via the protocol; true iff the daemon exits 0 *)
let shutdown_daemon ~socket pid =
  (try
     let c = Client.connect socket in
     ignore (Client.drain c);
     Client.close c
   with _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec await () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () >= deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          false
        end
        else begin
          Thread.delay 0.05;
          await ()
        end
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error _ -> false
  in
  await ()

(* ---------------- cold probe (child process) ---------------- *)

let run_cold_probe ~seed index =
  let t0 = Unix.gettimeofday () in
  let app = Gen.generate ~profile:Gen.Malware ~seed index in
  let r = Fd_core.Infoflow.analyze_apk ~mode:`Lenient app.Gen.ga_apk in
  ignore (List.length r.Fd_core.Infoflow.r_findings);
  Printf.printf "%.3f\n" ((Unix.gettimeofday () -. t0) *. 1000.)

(* (process wall-clock, analysis-only) in ms.  The process wall-clock
   is what a cold flowdroid_cli invocation actually costs per app —
   exec + runtime init + frontend/framework template construction +
   the analysis — and is the number the warm path amortises. *)
let cold_probe_ms o index =
  let cmd =
    Printf.sprintf "%s --cold-probe %d --seed %d"
      (Filename.quote Sys.executable_name)
      index o.seed
  in
  let t0 = Unix.gettimeofday () in
  let ic = Unix.open_process_in cmd in
  let line = try input_line ic with End_of_file -> "nan" in
  ignore (Unix.close_process_in ic);
  let total = (Unix.gettimeofday () -. t0) *. 1000. in
  (total, float_of_string line)

(* ---------------- workload ---------------- *)

type job_kind = J_normal | J_hang | J_crash | J_oversized

let job_kind i =
  if i mod 17 = 13 then J_oversized
  else if i mod 13 = 7 then J_crash
  else if i mod 10 = 4 then J_hang
  else J_normal

let gen_spec o i =
  let profile = if i mod 2 = 0 then Gen.Play else Gen.Malware in
  Protocol.App_gen { g_profile = profile; g_seed = o.seed; g_index = i }

(* an inline bundle whose frame comfortably exceeds the server limit *)
let oversized_app i =
  Protocol.App_inline
    {
      in_name = Printf.sprintf "oversized%d" i;
      in_manifest = "<manifest/>";
      in_layouts = [];
      in_sources = [ String.make (512 * 1024) 'x' ];
    }

let crash_app i =
  Protocol.App_inline
    {
      in_name = Printf.sprintf "crash%d" i;
      in_manifest = "<manifest package=\"bench.crash\"/>";
      in_layouts = [];
      in_sources = [ "this is not µJimple {{{" ];
    }

let request ?id app =
  {
    Protocol.rq_id = id;
    rq_app = app;
    rq_apps = [];
    rq_deadline_ms = None;
    rq_strict = false;
    rq_options = [];
  }

let job_request o i =
  let kind = job_kind i in
  let base = request ~id:(Json.Int i) in
  match kind with
  | J_normal -> (kind, base (gen_spec o i))
  | J_hang ->
      (* a 1 ms deadline blows every ladder rung: the daemon must
         deadline it out and reply partial/failed, never stall *)
      (kind, { (base (gen_spec o i)) with Protocol.rq_deadline_ms = Some 1 })
  | J_crash -> (kind, { (base (crash_app i)) with Protocol.rq_strict = true })
  | J_oversized -> (kind, base (oversized_app i))

(* ---------------- one phase ---------------- *)

type phase_result = {
  ph_name : string;
  ph_concurrency : int;
  ph_chaos : float;
  ph_sent : int;
  ph_replies : int;
  ph_outcomes : (string * int) list;
  ph_p50_ms : float;
  ph_p99_ms : float;
  ph_wall_s : float;
  ph_restarts : int;
  ph_retries : int;
  ph_alive : bool;
}

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let classify reply =
  match Json.member "ok" reply with
  | Some (Json.Bool true) -> (
      match Json.member "completeness" reply with
      | Some (Json.String c) ->
          if c = "precise" then "precise"
          else if String.starts_with ~prefix:"degraded" c then "degraded"
          else if String.starts_with ~prefix:"partial" c then "partial"
          else "ok-other"
      | _ -> "ok-other")
  | Some (Json.Bool false) -> (
      match Json.member "error" reply with
      | Some (Json.String e) -> e
      | _ -> "error-other")
  | _ -> "malformed"

let bump tbl key =
  let n = try Hashtbl.find tbl key with Not_found -> 0 in
  Hashtbl.replace tbl key (n + 1)

let stat_int reply key =
  match Json.member key reply with Some (Json.Int n) -> n | _ -> 0

let query_stats socket =
  try
    let c = Client.connect socket in
    let r = Client.stats c in
    Client.close c;
    (stat_int r "worker_restarts", stat_int r "retries")
  with _ -> (0, 0)

let run_phase o ~name ~lanes ~chaos socket =
  let pid = boot_daemon o ~socket ~chaos in
  let n = o.apps_per_phase in
  let results = Squeue.create ~capacity:(n + lanes) in
  let lane l =
    Thread.create
      (fun () ->
        let c = Client.connect socket in
        let rec go i =
          if i < n then begin
            let kind, rq = job_request o i in
            let t0 = Unix.gettimeofday () in
            (* overload rejections are legitimate backpressure: honour
               retry_after_ms and resubmit, like a real client *)
            let rec submit attempts =
              let reply = Client.analyze c rq in
              match (Json.member "error" reply, attempts) with
              | Some (Json.String "overloaded"), a when a < 50 ->
                  (match Json.member "retry_after_ms" reply with
                  | Some (Json.Int ms) ->
                      Thread.delay (float_of_int ms /. 1000.)
                  | _ -> Thread.delay 0.05);
                  submit (attempts + 1)
              | _ -> reply
            in
            let reply = submit 0 in
            Squeue.push_force results
              (kind, reply, (Unix.gettimeofday () -. t0) *. 1000.);
            go (i + lanes)
          end
        in
        (try go l with _ -> ());
        Client.close c)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init lanes lane in
  (* watchdog join: a dropped reply must surface as a count mismatch,
     not hang the bench *)
  let deadline = t0 +. phase_timeout_s in
  while
    Squeue.length results < n && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.05
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let timed_out = Squeue.length results < n in
  if not timed_out then List.iter Thread.join threads;
  Squeue.close results;
  let rec drain acc =
    match Squeue.pop results with Some r -> drain (r :: acc) | None -> acc
  in
  let replies = drain [] in
  let outcomes = Hashtbl.create 16 in
  let latencies =
    List.map
      (fun (_kind, reply, ms) ->
        bump outcomes (classify reply);
        ms)
      replies
  in
  let sorted = Array.of_list latencies in
  Array.sort compare sorted;
  (* each phase gets a fresh daemon, so stats counters ARE the phase
     deltas; read them before draining *)
  let restarts, retries = query_stats socket in
  let alive = daemon_alive pid in
  let clean_exit = shutdown_daemon ~socket pid in
  {
    ph_name = name;
    ph_concurrency = lanes;
    ph_chaos = chaos;
    ph_sent = n;
    ph_replies = List.length replies;
    ph_outcomes =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcomes []
      |> List.sort compare;
    ph_p50_ms = percentile sorted 0.50;
    ph_p99_ms = percentile sorted 0.99;
    ph_wall_s = wall;
    ph_restarts = restarts;
    ph_retries = retries;
    ph_alive = alive && clean_exit;
  }

(* ---------------- warm measurement ---------------- *)

(* the cold and warm paths must analyse the same apps, or the
   comparison measures corpus skew instead of amortisation *)
let probe_indices o =
  let stride = max 1 (o.apps_per_phase / o.cold_samples) in
  List.init o.cold_samples (fun i -> i * stride)

(* per-app cost of serving N well-formed apps through a warm daemon at
   saturation — the number that amortises the per-process cold cost *)
let measure_warm o socket =
  let indices = Array.of_list (probe_indices o) in
  let pid = boot_daemon o ~socket ~chaos:0. in
  let n = warm_samples in
  let lane l =
    Thread.create
      (fun () ->
        let c = Client.connect socket in
        let i = ref l in
        while !i < n do
          (* same profile as run_cold_probe — the two sides of the
             amortisation comparison must analyse identical apps *)
          let rq =
            request
              (Protocol.App_gen
                 {
                   g_profile = Gen.Malware;
                   g_seed = o.seed;
                   g_index = indices.(!i mod Array.length indices);
                 })
          in
          ignore (Client.analyze c rq);
          i := !i + o.warm_lanes
        done;
        Client.close c)
      ()
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init o.warm_lanes lane in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  ignore (shutdown_daemon ~socket pid);
  wall *. 1000. /. float_of_int n

(* ---------------- report ---------------- *)

let json_of_phase p =
  Json.Obj
    [
      ("name", Json.String p.ph_name);
      ("concurrency", Json.Int p.ph_concurrency);
      ("chaos_rate", Json.Float p.ph_chaos);
      ("sent", Json.Int p.ph_sent);
      ("replies", Json.Int p.ph_replies);
      ("dropped", Json.Int (p.ph_sent - p.ph_replies));
      ( "outcomes",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) p.ph_outcomes) );
      ("p50_ms", Json.Float p.ph_p50_ms);
      ("p99_ms", Json.Float p.ph_p99_ms);
      ("wall_s", Json.Float p.ph_wall_s);
      ( "throughput_rps",
        Json.Float
          (if p.ph_wall_s > 0. then float_of_int p.ph_replies /. p.ph_wall_s
           else 0.) );
      ("worker_restarts", Json.Int p.ph_restarts);
      ("retries", Json.Int p.ph_retries);
      ("daemon_alive", Json.Bool p.ph_alive);
    ]

let bench o =
  let sock i =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fdbench-%d-%d.sock" (Unix.getpid ()) i)
  in
  Printf.printf "== serve_bench: %d apps/phase, concurrency %s\n%!"
    o.apps_per_phase
    (String.concat "," (List.map string_of_int o.concurrency));
  let phases = ref [] in
  let idx = ref 0 in
  List.iter
    (fun lanes ->
      List.iter
        (fun chaos ->
          incr idx;
          let name =
            Printf.sprintf "c%d-%s" lanes
              (if chaos > 0. then "chaos" else "plain")
          in
          Printf.printf "-- phase %s\n%!" name;
          let p = run_phase o ~name ~lanes ~chaos (sock !idx) in
          Printf.printf
            "   %d/%d replies, p50 %.1fms p99 %.1fms, %d restarts, %d \
             retries, %.1fs\n\
             %!"
            p.ph_replies p.ph_sent p.ph_p50_ms p.ph_p99_ms p.ph_restarts
            p.ph_retries p.ph_wall_s;
          phases := p :: !phases)
        [ 0.; o.chaos_rate ])
    o.concurrency;
  let phases = List.rev !phases in
  Printf.printf "-- warm path (%d requests, %d lanes)\n%!" warm_samples
    o.warm_lanes;
  let warm_ms = measure_warm o (sock 0) in
  Printf.printf "-- cold path (%d per-process runs)\n%!" o.cold_samples;
  let cold =
    List.map (cold_probe_ms o) (probe_indices o)
    |> List.filter (fun (t, _) -> Float.is_finite t)
  in
  let mean f =
    match cold with
    | [] -> nan
    | l -> List.fold_left (fun a x -> a +. f x) 0. l /. float_of_int (List.length l)
  in
  let cold_ms = mean fst in
  let cold_analysis_ms = mean snd in
  let speedup = cold_ms /. warm_ms in
  Printf.printf
    "   warm %.2fms vs cold %.2fms/process (%.2fms analysis) -> %.1fx\n%!"
    warm_ms cold_ms cold_analysis_ms speedup;
  (* gates *)
  let dropped_ok =
    List.for_all (fun p -> p.ph_sent = p.ph_replies && p.ph_alive) phases
  in
  let warm_ok = Float.is_finite speedup && speedup >= o.warm_factor in
  let ratios =
    List.filter_map
      (fun lanes ->
        let find c =
          List.find_opt
            (fun p -> p.ph_concurrency = lanes && (p.ph_chaos > 0.) = c)
            phases
        in
        match (find false, find true) with
        | Some off, Some on when off.ph_p99_ms > 0. ->
            Some (lanes, on.ph_p99_ms /. off.ph_p99_ms)
        | _ -> None)
      o.concurrency
  in
  let chaos_ok =
    ratios <> [] && List.for_all (fun (_, r) -> r <= o.p99_ratio_limit) ratios
  in
  let report =
    Json.Obj
      [
        ("bench", Json.String "serve");
        ("apps_per_phase", Json.Int o.apps_per_phase);
        ("seed", Json.Int o.seed);
        ("phases", Json.List (List.map json_of_phase phases));
        ("warm_ms_mean", Json.Float warm_ms);
        ("cold_ms_mean", Json.Float cold_ms);
        ("cold_analysis_ms_mean", Json.Float cold_analysis_ms);
        ("warm_speedup", Json.Float speedup);
        ( "chaos_p99_ratios",
          Json.Obj
            (List.map
               (fun (l, r) -> (Printf.sprintf "c%d" l, Json.Float r))
               ratios) );
        ( "gates",
          Json.Obj
            [
              ("zero_dropped", Json.Bool dropped_ok);
              ( Printf.sprintf "warm_speedup_ge_%.0f" o.warm_factor,
                Json.Bool warm_ok );
              ( Printf.sprintf "chaos_p99_ratio_le_%.0f" o.p99_ratio_limit,
                Json.Bool chaos_ok );
            ] );
        ("pass", Json.Bool (dropped_ok && warm_ok && chaos_ok));
      ]
  in
  Fd_obs.Export.write_file o.out_path (Json.to_string ~indent:2 report ^ "\n");
  Printf.printf "== serve_bench: report -> %s\n%!" o.out_path;
  Printf.printf "   gates: dropped %s, warm %s, chaos-p99 %s\n%!"
    (if dropped_ok then "ok" else "FAIL")
    (if warm_ok then "ok" else "FAIL")
    (if chaos_ok then "ok" else "FAIL");
  if dropped_ok && warm_ok && chaos_ok then 0 else 1

let opts =
  let opt kind default name doc =
    Arg.(value & opt kind default & info [ name ] ~doc)
  in
  Term.(
    const
      (fun apps_per_phase concurrency seed chaos_rate out_path warm_factor
           p99_ratio_limit cold_samples warm_lanes serve_exe ->
        { apps_per_phase; concurrency; seed; chaos_rate; out_path;
          warm_factor; p99_ratio_limit; cold_samples; warm_lanes; serve_exe })
    $ opt Arg.int 100 "apps" "Apps per phase."
    $ opt Arg.(list int) [ 4; 16 ] "concurrency"
        "Comma-separated client-lane counts."
    $ opt Arg.int 20140609 "seed" "Corpus seed."
    $ opt Arg.float 0.1 "chaos-rate" "Chaos-on phase rate."
    $ opt Arg.string "BENCH_serve.json" "out" "Report path."
    $ opt Arg.float 3.0 "warm-factor" "Warm-speedup gate."
    $ opt Arg.float 2.0 "p99-ratio" "Chaos p99 gate."
    $ opt Arg.int 5 "cold-samples" "Cold probe runs."
    $ opt Arg.int 2 "warm-lanes" "Warm-path client lanes."
    $ opt Arg.string
        (Filename.concat
           (Filename.dirname Sys.executable_name)
           "../bin/flowdroid_serve.exe")
        "serve-exe" "Path to flowdroid_serve.exe.")

(* [--cold-probe INDEX] is how the bench re-executes itself for one
   cold sample *)
let cold_probe =
  Arg.(
    value
    & opt (some int) None
    & info [ "cold-probe" ] ~docv:"INDEX"
        ~doc:"Internal: analyse one app cold and print milliseconds.")

let main cold_probe o =
  match cold_probe with
  | Some index ->
      run_cold_probe ~seed:o.seed index;
      0
  | None -> bench o

let () =
  exit
    (Cmd.eval'
       (Cmd.v
          (Cmd.info "serve_bench" ~doc:"Load generator for the serve daemon")
          Term.(const main $ cold_probe $ opts)))

