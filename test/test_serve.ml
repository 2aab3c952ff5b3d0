(* Tests for the serve daemon: protocol framing, the bounded work
   queue, request/response round-trips over a real socket, admission
   control (queue-full rejection with retry_after_ms), worker-crash
   supervision landing on a degraded rung, graceful drain, and a
   chaos run proving exactly-one-reply with diagnosed outcomes. *)

module Json = Fd_obs.Json
module Squeue = Fd_serve.Squeue
module Protocol = Fd_serve.Protocol
module Server = Fd_serve.Server
module Client = Fd_serve.Client

let sock_counter = ref 0

let fresh_socket () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "fdserve-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let gen_app index =
  Protocol.App_gen
    { g_profile = Fd_appgen.Generator.Malware; g_seed = 2014; g_index = index }

let analyze_req ?id ?deadline_ms app =
  {
    Protocol.rq_id = Option.map (fun s -> Json.String s) id;
    rq_app = app;
    rq_apps = [];
    rq_deadline_ms = deadline_ms;
    rq_strict = false;
    rq_options = [];
  }

let member_str k v =
  match Json.member k v with Some (Json.String s) -> Some s | _ -> None

let is_ok v = Json.member "ok" v = Some (Json.Bool true)

let diags_nonempty v =
  match Json.member "diags" v with
  | Some (Json.List (_ :: _)) -> true
  | _ -> false

let wait_for ?(timeout = 5.) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* ---------------- squeue ---------------- *)

let test_squeue_bounds () =
  let q = Squeue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Squeue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Squeue.try_push q 2);
  Alcotest.(check bool) "push 3 bounces" false (Squeue.try_push q 3);
  (* the supervision path may exceed capacity *)
  Squeue.push_force q 4;
  Alcotest.(check int) "depth 3" 3 (Squeue.length q);
  Alcotest.(check (option int)) "fifo" (Some 1) (Squeue.pop q);
  Squeue.close q;
  Alcotest.(check bool) "closed rejects" false (Squeue.try_push q 5);
  (* queued items still drain after close *)
  Alcotest.(check (option int)) "drain 2" (Some 2) (Squeue.pop q);
  Alcotest.(check (option int)) "drain 4" (Some 4) (Squeue.pop q);
  Alcotest.(check (option int)) "then None" None (Squeue.pop q)

let test_squeue_blocking_pop () =
  let q = Squeue.create ~capacity:4 in
  let got = Atomic.make (-1) in
  let th = Thread.create (fun () ->
      match Squeue.pop q with
      | Some v -> Atomic.set got v
      | None -> Atomic.set got (-2)) ()
  in
  Thread.delay 0.05;
  Squeue.push_force q 7;
  Thread.join th;
  Alcotest.(check int) "woken with the item" 7 (Atomic.get got)

(* ---------------- framing ---------------- *)

let test_framing_roundtrip () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let v = Json.Obj [ ("verb", Json.String "ping"); ("n", Json.Int 42) ] in
  Protocol.write_frame a v;
  Protocol.write_frame a (Json.String "two");
  Alcotest.(check bool) "frame 1" true (Protocol.read_frame b = Some v);
  Alcotest.(check bool) "frame 2" true
    (Protocol.read_frame b = Some (Json.String "two"));
  Unix.close a;
  Alcotest.(check bool) "clean EOF" true (Protocol.read_frame b = None);
  Unix.close b

let test_framing_oversized_keeps_stream () =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  let big = Json.String (String.make 4096 'x') in
  let writer = Thread.create (fun () ->
      Protocol.write_frame a big;
      Protocol.write_frame a (Json.Int 1);
      Unix.close a) ()
  in
  (match Protocol.read_frame ~max_bytes:64 b with
  | exception Protocol.Oversized n ->
      Alcotest.(check bool) "declared size" true (n > 4096)
  | _ -> Alcotest.fail "expected Oversized");
  (* the oversized payload was discarded, the next frame is intact *)
  Alcotest.(check bool) "stream still framed" true
    (Protocol.read_frame b = Some (Json.Int 1));
  Thread.join writer;
  Unix.close b

let test_request_roundtrip () =
  let a =
    {
      (analyze_req ~id:"r1" ~deadline_ms:1500 (gen_app 3)) with
      Protocol.rq_options =
        [
          ("k", Json.Int 2);
          ("targeted", Json.List [ Json.String "Log.i" ]);
          ("icc", Json.Bool true);
        ];
    }
  in
  match Protocol.request_of_json (Protocol.json_of_analyze a) with
  | Ok (Protocol.Analyze a') ->
      Alcotest.(check bool) "every field" true (a' = a);
      Alcotest.(check string) "name" "gen3" (Protocol.app_name a'.rq_app)
  | _ -> Alcotest.fail "analyze did not round-trip"

(* ---------------- server fixtures ---------------- *)

let base_cfg socket =
  {
    (Server.default_config ~socket) with
    Server.sv_workers = 1;
    sv_queue_capacity = 2;
    sv_base_config =
      { Fd_core.Config.default with Fd_core.Config.deadline_s = Some 10. };
    sv_drain_grace_s = 5.;
  }

let with_server cfg f =
  let server = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop ~grace_s:5. server) (fun () ->
      f server)

let with_client socket f =
  let c = Client.connect socket in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* ---------------- cold-start backpressure hint ---------------- *)

(* on a freshly-booted daemon the latency histogram is empty (and the
   first samples can be degenerate 0s); the retry_after_ms estimate
   must still land inside its documented [50 ms, 10 s] envelope *)
let test_retry_after_cold_start () =
  let socket = fresh_socket () in
  Fd_obs.Metrics.reset ();
  with_server (base_cfg socket) (fun server ->
      let check_bounds label =
        let ms = Server.retry_after_ms server in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %d ms within [50, 10000]" label ms)
          true
          (ms >= 50 && ms <= 10_000)
      in
      (* empty histogram *)
      check_bounds "cold start";
      (* degenerate zero-duration samples: mean 0 must clamp up *)
      let h = Fd_obs.Metrics.histogram "serve.request_seconds" in
      Fd_obs.Metrics.observe h 0.;
      check_bounds "zero-duration sample";
      (* pathological huge sample: mean must clamp down, not overflow *)
      Fd_obs.Metrics.observe h 1e12;
      check_bounds "huge sample";
      (* after real traffic it stays bounded too *)
      with_client socket (fun c ->
          ignore (Client.analyze c (analyze_req (gen_app 0))));
      check_bounds "after a real request")

(* ---------------- round-trip ---------------- *)

let test_server_roundtrip () =
  let socket = fresh_socket () in
  with_server (base_cfg socket) (fun _server ->
      with_client socket (fun c ->
          Alcotest.(check bool) "pong" true (Client.ping c);
          let h = Client.health c in
          Alcotest.(check bool) "health ok" true (is_ok h);
          Alcotest.(check bool) "running" true
            (member_str "phase" h = Some "running");
          let r = Client.analyze c (analyze_req ~id:"rt" (gen_app 3)) in
          Alcotest.(check bool) "analyze ok" true (is_ok r);
          Alcotest.(check bool) "id echoed" true
            (Json.member "id" r = Some (Json.String "rt"));
          Alcotest.(check bool) "precise" true
            (member_str "completeness" r = Some "precise");
          Alcotest.(check bool) "has findings count" true
            (match Json.member "findings" r with
            | Some (Json.Int n) -> n >= 0
            | _ -> false);
          let s = Client.stats c in
          Alcotest.(check bool) "stats ok" true (is_ok s)))

let test_server_bad_requests () =
  let socket = fresh_socket () in
  with_server (base_cfg socket) (fun _server ->
      with_client socket (fun c ->
          let r = Client.request c (Json.Obj [ ("verb", Json.String "nope") ]) in
          Alcotest.(check (option string)) "unknown verb" (Some "bad-request")
            (member_str "error" r);
          (* [Protocol.analyze] has no rules field, so the unknown name
             goes out as a raw frame *)
          let r =
            Client.request c
              (Json.Obj
                 [
                   ("verb", Json.String "analyze");
                   ("app", Json.Obj [ ("dir", Json.String "/nonexistent/app") ]);
                   ("rules", Json.String "missing");
                 ])
          in
          Alcotest.(check (option string)) "unknown rules" (Some "bad-request")
            (member_str "error" r);
          let r =
            Client.analyze c (analyze_req (Protocol.App_dir "/nonexistent/app"))
          in
          Alcotest.(check (option string)) "bad app dir" (Some "bad-app")
            (member_str "error" r);
          (* one app goes through the same loader as a batch: a strict
             load that rejects the app is the client's fault too *)
          let missing_class =
            Protocol.App_inline
              {
                in_name = "missing";
                in_manifest =
                  Fd_frontend.Apk.simple_manifest ~package:"t"
                    [ (Fd_frontend.Framework.Activity, "t.Missing", []) ];
                in_layouts = [];
                in_sources = [];
              }
          in
          let r =
            Client.analyze c
              { (analyze_req missing_class) with Protocol.rq_strict = true }
          in
          Alcotest.(check (option string)) "strict load rejection"
            (Some "bad-app") (member_str "error" r);
          (* the connection survives all of the above *)
          Alcotest.(check bool) "still serving" true (Client.ping c)))

(* ---------------- per-request options on the wire ---------------- *)

(* an app whose one leak only appears when the access-path bound
   truncates [o.in.secret] to [o.in.*]: at k = 5 the clean sibling
   field is read, at k = 1 the two fields collapse *)
let k_sensitive_app =
  Protocol.App_inline
    {
      in_name = "k_sensitive";
      in_manifest =
        {|<manifest package="t.k"><application>
  <activity android:name="t.k.Main">
    <intent-filter><action android:name="android.intent.action.MAIN"/></intent-filter>
  </activity>
</application></manifest>|};
      in_layouts = [];
      in_sources =
        [
          {|class t.k.Main extends android.app.Activity {
  method void onCreate(android.os.Bundle) {
    local o : t.k.Outer;
    local a : t.k.Inner;
    local a2 : t.k.Inner;
    local tm : android.telephony.TelephonyManager;
    local id : java.lang.String;
    local v : java.lang.String;
    local sms : android.telephony.SmsManager;
    this := @this: t.k.Main;
    o = new t.k.Outer;
    a = new t.k.Inner;
    o.t.k.Outer#in = a;
    tm = staticinvoke t.k.Main#tm();
    id = virtualinvoke tm.android.telephony.TelephonyManager#getDeviceId();
    a2 = o.t.k.Outer#in;
    a2.t.k.Inner#secret = id;
    v = a2.t.k.Inner#clean;
    sms = staticinvoke android.telephony.SmsManager#getDefault();
    virtualinvoke sms.android.telephony.SmsManager#sendTextMessage("1", null, v, null, null);
    return;
  }
  static method android.telephony.TelephonyManager tm() {
    local t : android.telephony.TelephonyManager;
    t = null;
    return t;
  }
}
class t.k.Outer {
  field in : t.k.Inner;
}
class t.k.Inner {
  field secret : java.lang.String;
  field clean : java.lang.String;
}|};
        ];
    }

(* the analyze request for [app] as raw JSON with [options] appended,
   so the tests pin the wire keys themselves *)
let analyze_json ?(options = []) app =
  match Protocol.json_of_analyze (analyze_req app) with
  | Json.Obj fields -> Json.Obj (fields @ options)
  | _ -> assert false

let flows_of reply =
  match Json.member "flows" reply with
  | Some (Json.List flows) -> flows
  | _ -> Alcotest.failf "no flows in %s" (Json.to_string reply)

let test_wire_options () =
  let socket = fresh_socket () in
  with_server (base_cfg socket) (fun _server ->
      with_client socket (fun c ->
          let flows ?options app =
            flows_of (Client.request c (analyze_json ?options app))
          in
          let check_changes label ~options app =
            let without = flows app and with_ = flows ~options app in
            Alcotest.(check bool) (label ^ " changes the flows") false
              (List.equal Json.equal without with_)
          in
          check_changes "\"k\":1" ~options:[ ("k", Json.Int 1) ]
            k_sensitive_app;
          let icc_app =
            Protocol.App_gen
              { g_profile = Fd_appgen.Generator.Icc; g_seed = 2014;
                g_index = 1 }
          in
          check_changes "\"icc\":true" ~options:[ ("icc", Json.Bool true) ]
            icc_app;
          check_changes "\"targeted\":[...]"
            ~options:
              [ ("targeted", Json.List [ Json.String "NoSuch.sinkMethod" ]) ]
            (gen_app 3);
          (* on a daemon with the default base config, an explicit
             false/empty value is the same request as leaving it out *)
          List.iter
            (fun (label, options, app) ->
              Alcotest.(check bool) label true
                (List.equal Json.equal (flows app) (flows ~options app)))
            [
              ("explicit \"icc\":false", [ ("icc", Json.Bool false) ], icc_app);
              ( "explicit \"targeted\":[]",
                [ ("targeted", Json.List []) ],
                gen_app 3 );
            ];
          let r =
            Client.request c
              (analyze_json ~options:[ ("k", Json.Int 0) ] (gen_app 3))
          in
          Alcotest.(check (option string)) "\"k\":0 refused"
            (Some "bad-request") (member_str "error" r);
          Alcotest.(check bool) "still serving" true (Client.ping c)))

(* an explicit value replaces the daemon's base value: on a daemon
   whose base is targeted at a sink no app calls and has the ICC tier
   on, ["targeted":[]] runs the full analysis and ["icc":false] turns
   the tier off *)
let test_explicit_options_override_base () =
  let socket = fresh_socket () in
  let cfg =
    {
      (base_cfg socket) with
      Server.sv_base_config =
        {
          (base_cfg socket).Server.sv_base_config with
          Fd_core.Config.targeted = [ "NoSuch.sinkMethod" ];
          icc = true;
        };
    }
  in
  let full = ("targeted", Json.List []) in
  let icc_app =
    Protocol.App_gen
      { g_profile = Fd_appgen.Generator.Icc; g_seed = 2014; g_index = 1 }
  in
  with_server cfg (fun _server ->
      with_client socket (fun c ->
          let flows ?options app =
            flows_of (Client.request c (analyze_json ?options app))
          in
          Alcotest.(check int) "base: targeted at nothing" 0
            (List.length (flows (gen_app 3)));
          Alcotest.(check bool) "\"targeted\":[] runs the full analysis"
            true
            (flows ~options:[ full ] (gen_app 3) <> []);
          Alcotest.(check bool) "\"icc\":false turns the tier off" false
            (List.equal Json.equal
               (flows ~options:[ full ] icc_app)
               (flows ~options:[ full; ("icc", Json.Bool false) ] icc_app))))

(* the daemon's base config caps solver work like the command line
   does: ten propagations cannot finish the app at full precision *)
let test_max_propagations_honoured () =
  let socket = fresh_socket () in
  let cfg =
    {
      (base_cfg socket) with
      Server.sv_base_config =
        { Fd_core.Config.default with Fd_core.Config.max_propagations = 10 };
    }
  in
  with_server cfg (fun _server ->
      with_client socket (fun c ->
          let r = Client.analyze c (analyze_req (gen_app 3)) in
          Alcotest.(check bool) "answered" true (is_ok r);
          Alcotest.(check bool) "not precise" true
            (member_str "completeness" r <> Some "precise")))

(* ---------------- admission control ---------------- *)

let test_queue_full_rejection () =
  let socket = fresh_socket () in
  let hold = Atomic.make true in
  let cfg =
    {
      (base_cfg socket) with
      Server.sv_attempt_hook =
        Some (fun _ _ -> while Atomic.get hold do Unix.sleepf 0.005 done);
    }
  in
  with_server cfg (fun server ->
      Fun.protect ~finally:(fun () -> Atomic.set hold false) @@ fun () ->
      let replies = Squeue.create ~capacity:8 in
      let lane i =
        Thread.create
          (fun () ->
            with_client socket (fun c ->
                Squeue.push_force replies
                  (i, Client.analyze c (analyze_req (gen_app i)))))
          ()
      in
      (* build the saturated state step by step so the worker is
         guaranteed to be parked in the hook before the queue fills:
         1 in-flight + 2 queued = at capacity *)
      let l1 = lane 1 in
      Alcotest.(check bool) "first picked up" true
        (wait_for (fun () ->
             Server.in_flight server = 1 && Server.queue_depth server = 0));
      let l2 = lane 2 in
      Alcotest.(check bool) "second queued" true
        (wait_for (fun () -> Server.queue_depth server = 1));
      let l3 = lane 3 in
      let lanes = [ l1; l2; l3 ] in
      Alcotest.(check bool) "queue fills" true
        (wait_for (fun () ->
             Server.in_flight server = 1 && Server.queue_depth server = 2));
      with_client socket (fun c ->
          let r = Client.analyze c (analyze_req (gen_app 4)) in
          Alcotest.(check (option string)) "rejected" (Some "overloaded")
            (member_str "error" r);
          Alcotest.(check bool) "retry_after_ms present" true
            (match Json.member "retry_after_ms" r with
            | Some (Json.Int ms) -> ms > 0
            | _ -> false));
      Atomic.set hold false;
      List.iter Thread.join lanes;
      (* every admitted request got exactly one (successful) reply *)
      Squeue.close replies;
      let rec drain acc =
        match Squeue.pop replies with
        | Some r -> drain (r :: acc)
        | None -> acc
      in
      let got = drain [] in
      Alcotest.(check int) "three replies" 3 (List.length got);
      List.iter
        (fun (i, r) ->
          Alcotest.(check bool) (Printf.sprintf "lane %d ok" i) true (is_ok r))
        got)

(* ---------------- supervision ---------------- *)

let test_worker_crash_retries_degraded () =
  let socket = fresh_socket () in
  let cfg =
    {
      (base_cfg socket) with
      Server.sv_attempt_hook =
        Some
          (fun _ attempt ->
            (* kill the worker on every first attempt: supervision
               must restart it and land the retry on the next rung *)
            if attempt = 1 then failwith "injected worker crash");
    }
  in
  with_server cfg (fun _server ->
      with_client socket (fun c ->
          let r = Client.analyze c (analyze_req (gen_app 3)) in
          Alcotest.(check bool) "still answered" true (is_ok r);
          Alcotest.(check (option string)) "landed on the k=3 rung"
            (Some "degraded(k=3)")
            (member_str "completeness" r);
          Alcotest.(check bool) "crash diagnosed" true (diags_nonempty r);
          let h = Client.health c in
          Alcotest.(check bool) "restart counted" true
            (match Json.member "worker_restarts" h with
            | Some (Json.Int n) -> n >= 1
            | _ -> false)))

(* ---------------- graceful drain ---------------- *)

let test_graceful_drain () =
  let socket = fresh_socket () in
  let hold = Atomic.make true in
  let cfg =
    {
      (base_cfg socket) with
      Server.sv_attempt_hook =
        Some (fun _ _ -> while Atomic.get hold do Unix.sleepf 0.005 done);
    }
  in
  with_server cfg (fun server ->
      Fun.protect ~finally:(fun () -> Atomic.set hold false) @@ fun () ->
      let reply = Atomic.make None in
      let lane =
        Thread.create
          (fun () ->
            with_client socket (fun c ->
                Atomic.set reply
                  (Some (Client.analyze c (analyze_req (gen_app 3))))))
          ()
      in
      Alcotest.(check bool) "request picked up" true
        (wait_for (fun () -> Server.in_flight server = 1));
      with_client socket (fun c ->
          let d = Client.drain c in
          Alcotest.(check bool) "drain acknowledged" true (is_ok d);
          let r = Client.analyze c (analyze_req (gen_app 4)) in
          Alcotest.(check (option string)) "new work rejected"
            (Some "draining")
            (member_str "error" r));
      (* in-flight work completes once released *)
      Atomic.set hold false;
      Thread.join lane;
      (match Atomic.get reply with
      | Some r ->
          Alcotest.(check bool) "in-flight completed" true (is_ok r);
          Alcotest.(check (option string)) "precisely" (Some "precise")
            (member_str "completeness" r)
      | None -> Alcotest.fail "in-flight request never replied");
      Alcotest.(check bool) "drained to idle" true
        (wait_for (fun () ->
             Server.in_flight server = 0 && Server.queue_depth server = 0)))

(* ---------------- chaos ---------------- *)

let test_chaos_exactly_one_reply () =
  let socket = fresh_socket () in
  let cfg =
    {
      (base_cfg socket) with
      Server.sv_workers = 2;
      sv_queue_capacity = 64;
      sv_chaos_rate = 0.1;
      sv_chaos_seed = 1234;
    }
  in
  let lanes = 3 and per_lane = 8 in
  with_server cfg (fun server ->
      let replies = Squeue.create ~capacity:(lanes * per_lane) in
      let lane l =
        Thread.create
          (fun () ->
            with_client socket (fun c ->
                for i = 0 to per_lane - 1 do
                  let idx = (l * per_lane) + i in
                  Squeue.push_force replies
                    (idx, Client.analyze c (analyze_req (gen_app idx)))
                done))
          ()
      in
      let threads = List.init lanes lane in
      List.iter Thread.join threads;
      Squeue.close replies;
      let rec drain acc =
        match Squeue.pop replies with
        | Some r -> drain (r :: acc)
        | None -> acc
      in
      let got = drain [] in
      (* exactly one reply per request, the daemon survived, and every
         non-precise outcome carries diagnostics *)
      Alcotest.(check int) "every request replied" (lanes * per_lane)
        (List.length got);
      Alcotest.(check bool) "daemon alive" true (Server.running server);
      List.iter
        (fun (idx, r) ->
          let label = Printf.sprintf "req %d" idx in
          match Json.member "ok" r with
          | Some (Json.Bool true) ->
              if member_str "completeness" r <> Some "precise" then
                Alcotest.(check bool) (label ^ " diagnosed") true
                  (diags_nonempty r)
          | Some (Json.Bool false) ->
              Alcotest.(check bool) (label ^ " failure diagnosed") true
                (diags_nonempty r)
          | _ -> Alcotest.fail (label ^ ": reply without ok field"))
        got)

(* ---------------- bounded trace growth ---------------- *)

(* tracing is always on, and each worker domain records its spans into
   a store of its own: a daemon that kept them all would grow with
   every request it served.  Workers drop their spans between
   requests, so 200 analyses leave no more spans than one does. *)
let test_spans_bounded () =
  let socket = fresh_socket () in
  let spans () = List.length (Fd_obs.Trace.spans ()) in
  let before = spans () in
  let replies = ref 0 in
  with_server (base_cfg socket) (fun _server ->
      with_client socket (fun c ->
          for i = 0 to 199 do
            if is_ok (Client.analyze c (analyze_req (gen_app (i mod 8)))) then
              incr replies
          done));
  Alcotest.(check int) "every request answered" 200 !replies;
  let grown = spans () - before in
  if grown > 50 then
    Alcotest.failf "200 requests left %d more spans than before" grown

let () =
  Alcotest.run "serve"
    [
      ( "squeue",
        [
          Alcotest.test_case "bounds and close" `Quick test_squeue_bounds;
          Alcotest.test_case "blocking pop" `Quick test_squeue_blocking_pop;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "framing round-trip" `Quick
            test_framing_roundtrip;
          Alcotest.test_case "oversized keeps stream" `Quick
            test_framing_oversized_keeps_stream;
          Alcotest.test_case "analyze round-trip" `Quick
            test_request_roundtrip;
        ] );
      ( "server",
        [
          Alcotest.test_case "request/response round-trip" `Quick
            test_server_roundtrip;
          Alcotest.test_case "bad requests don't wedge" `Quick
            test_server_bad_requests;
          Alcotest.test_case "retry_after_ms bounded from cold start" `Quick
            test_retry_after_cold_start;
          Alcotest.test_case "queue-full rejection" `Quick
            test_queue_full_rejection;
          Alcotest.test_case "worker crash lands degraded" `Quick
            test_worker_crash_retries_degraded;
          Alcotest.test_case "graceful drain" `Quick test_graceful_drain;
          Alcotest.test_case "chaos: exactly one reply" `Quick
            test_chaos_exactly_one_reply;
          Alcotest.test_case "spans bounded over 200 requests" `Quick
            test_spans_bounded;
          Alcotest.test_case "wire options change the reply" `Quick
            test_wire_options;
          Alcotest.test_case "explicit options override the base" `Quick
            test_explicit_options_override_base;
          Alcotest.test_case "base max_propagations honoured" `Quick
            test_max_propagations_honoured;
        ] );
    ]
