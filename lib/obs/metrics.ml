(** The global metrics registry: named counters, gauges and log-scale
    histograms with O(1) hot-path updates (see the interface for the
    usage discipline).

    Domain-safety: counters and gauges are [Atomic.t] cells, histogram
    observations take a per-histogram mutex, and the name→handle
    registries are guarded by one registry mutex — so app-level
    parallel runs (see {!Fd_util.Pool}) can share the registry without
    torn updates.  Snapshots are not a consistent cut across metrics
    (each cell is read atomically but at slightly different times),
    which is fine for reporting. *)

type counter = int Atomic.t
type gauge = float Atomic.t

(* log2 buckets over seconds: bucket [i] covers
   (2^(i-bucket_offset-1), 2^(i-bucket_offset)], i.e. from ~1µs up to
   ~2^11 s; out-of-range samples clamp to the edge buckets *)
let bucket_offset = 20
let bucket_count = 32

type histogram = {
  h_lock : Mutex.t;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;
}

let registry_lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let register tbl name fresh =
  locked (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some v -> v
      | None ->
          let v = fresh () in
          Hashtbl.replace tbl name v;
          v)

let counter name = register counters name (fun () -> Atomic.make 0)
let gauge name = register gauges name (fun () -> Atomic.make 0.)

let histogram name =
  register histograms name (fun () ->
      {
        h_lock = Mutex.create ();
        h_count = 0;
        h_sum = 0.;
        h_min = infinity;
        h_max = neg_infinity;
        h_buckets = Array.make bucket_count 0;
      })

let incr c = Atomic.incr c

let add c n = ignore (Atomic.fetch_and_add c n)

let value c = Atomic.get c
let set g v = Atomic.set g v
let set_int g v = Atomic.set g (float_of_int v)
let gauge_value g = Atomic.get g

let bucket_index v =
  if v <= 0. then 0
  else
    let i = bucket_offset + int_of_float (Float.ceil (Float.log2 v)) in
    if i < 0 then 0 else if i >= bucket_count then bucket_count - 1 else i

let bucket_upper i = Float.pow 2. (float_of_int (i - bucket_offset))

let observe h v =
  Mutex.lock h.h_lock;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_index v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  Mutex.unlock h.h_lock

let time h f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> observe h (Unix.gettimeofday () -. t0)) f

let hist_count h = h.h_count
let hist_sum h = h.h_sum

let nonempty_buckets h =
  let acc = ref [] in
  for i = bucket_count - 1 downto 0 do
    if h.h_buckets.(i) > 0 then acc := (bucket_upper i, h.h_buckets.(i)) :: !acc
  done;
  !acc

let hist_buckets = nonempty_buckets

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
      Hashtbl.iter (fun _ g -> Atomic.set g 0.) gauges;
      Hashtbl.iter
        (fun _ h ->
          Mutex.lock h.h_lock;
          h.h_count <- 0;
          h.h_sum <- 0.;
          h.h_min <- infinity;
          h.h_max <- neg_infinity;
          Array.fill h.h_buckets 0 bucket_count 0;
          Mutex.unlock h.h_lock)
        histograms)

type snapshot = {
  sn_counters : (string * int) list;
  sn_gauges : (string * float) list;
  sn_histograms : (string * hist_summary) list;
}

and hist_summary = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (float * int) list;
  hs_p50 : float;
  hs_p90 : float;
  hs_p99 : float;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun name v acc -> (name, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* quantile estimate from the log-scale buckets: find the bucket
   holding the rank-[q·count] sample and interpolate linearly within
   its (lower, upper] range, clamping to the observed min/max (which
   are exact).  Must be called with [h.h_lock] held. *)
let quantile_locked h q =
  if h.h_count = 0 then 0.
  else begin
    let rank = q *. float_of_int h.h_count in
    let i = ref 0 and cum = ref 0 in
    while !i < bucket_count - 1 && float_of_int (!cum + h.h_buckets.(!i)) < rank do
      cum := !cum + h.h_buckets.(!i);
      i := !i + 1
    done;
    let in_bucket = h.h_buckets.(!i) in
    let est =
      if in_bucket = 0 then bucket_upper !i
      else
        let lower = if !i = 0 then 0. else bucket_upper (!i - 1) in
        let upper = bucket_upper !i in
        let frac = (rank -. float_of_int !cum) /. float_of_int in_bucket in
        lower +. (frac *. (upper -. lower))
    in
    Float.min h.h_max (Float.max h.h_min est)
  end

let snapshot () =
  locked (fun () ->
      {
        sn_counters = sorted_bindings counters Atomic.get;
        sn_gauges = sorted_bindings gauges Atomic.get;
        sn_histograms =
          sorted_bindings histograms (fun h ->
              Mutex.lock h.h_lock;
              let hs =
                {
                  hs_count = h.h_count;
                  hs_sum = h.h_sum;
                  hs_min = (if h.h_count = 0 then 0. else h.h_min);
                  hs_max = (if h.h_count = 0 then 0. else h.h_max);
                  hs_buckets = nonempty_buckets h;
                  hs_p50 = quantile_locked h 0.50;
                  hs_p90 = quantile_locked h 0.90;
                  hs_p99 = quantile_locked h 0.99;
                }
              in
              Mutex.unlock h.h_lock;
              hs);
      })

let counter_value name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> Atomic.get c
      | None -> 0)

let histogram_summary name =
  let sn = snapshot () in
  List.assoc_opt name sn.sn_histograms

(* ------------------------------------------------------------------ *)
(* Snapshot difference: per-request/per-app scoping without [reset].   *)
(* ------------------------------------------------------------------ *)

(* list-based twin of [quantile_locked]: estimate the rank-[q·count]
   sample from (upper_bound, count) buckets, interpolating linearly
   inside the bucket holding the rank and clamping to [lo, hi] *)
let quantile_of_buckets ~count ~lo ~hi buckets q =
  if count = 0 then 0.
  else begin
    let rank = q *. float_of_int count in
    let rec go cum = function
      | [] -> hi
      | (upper, n) :: rest ->
          if float_of_int (cum + n) >= rank || rest = [] then
            let lower =
              (* the log-scale buckets are contiguous powers of two *)
              if upper <= 0. then 0. else upper /. 2.
            in
            if n = 0 then upper
            else lower +. ((rank -. float_of_int cum) /. float_of_int n
                           *. (upper -. lower))
          else go (cum + n) rest
    in
    Float.min hi (Float.max lo (go 0 buckets))
  end

let diff_hist (a : hist_summary) (b : hist_summary) =
  let count = max 0 (a.hs_count - b.hs_count) in
  if count = 0 then
    { hs_count = 0; hs_sum = 0.; hs_min = 0.; hs_max = 0.; hs_buckets = [];
      hs_p50 = 0.; hs_p90 = 0.; hs_p99 = 0. }
  else if b.hs_count = 0 then a
  else begin
    let buckets =
      List.filter_map
        (fun (le, n) ->
          let before =
            Option.value (List.assoc_opt le b.hs_buckets) ~default:0
          in
          if n - before > 0 then Some (le, n - before) else None)
        a.hs_buckets
    in
    (* exact extrema are lost in a diff: bound them by the surviving
       buckets' edges (clamped to the cumulative observed range) *)
    let lo =
      match buckets with
      | (le, _) :: _ -> Float.max a.hs_min (if le <= 0. then 0. else le /. 2.)
      | [] -> a.hs_min
    in
    let hi =
      match List.rev buckets with
      | (le, _) :: _ -> Float.min a.hs_max le
      | [] -> a.hs_max
    in
    {
      hs_count = count;
      hs_sum = Float.max 0. (a.hs_sum -. b.hs_sum);
      hs_min = lo;
      hs_max = hi;
      hs_buckets = buckets;
      hs_p50 = quantile_of_buckets ~count ~lo ~hi buckets 0.50;
      hs_p90 = quantile_of_buckets ~count ~lo ~hi buckets 0.90;
      hs_p99 = quantile_of_buckets ~count ~lo ~hi buckets 0.99;
    }
  end

let diff (after : snapshot) (before : snapshot) =
  {
    sn_counters =
      List.map
        (fun (name, v) ->
          let b = Option.value (List.assoc_opt name before.sn_counters) ~default:0 in
          (name, max 0 (v - b)))
        after.sn_counters;
    sn_gauges = after.sn_gauges;
    sn_histograms =
      List.map
        (fun (name, hs) ->
          match List.assoc_opt name before.sn_histograms with
          | Some b -> (name, diff_hist hs b)
          | None -> (name, hs))
        after.sn_histograms;
  }

let snapshot_to_json sn =
  Json.Obj
    [
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) sn.sn_counters) );
      ( "gauges",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) sn.sn_gauges) );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (k, hs) ->
               ( k,
                 Json.Obj
                   [
                     ("count", Json.Int hs.hs_count);
                     ("sum", Json.Float hs.hs_sum);
                     ("min", Json.Float hs.hs_min);
                     ("max", Json.Float hs.hs_max);
                     ("p50", Json.Float hs.hs_p50);
                     ("p90", Json.Float hs.hs_p90);
                     ("p99", Json.Float hs.hs_p99);
                     ( "buckets",
                       Json.List
                         (List.map
                            (fun (le, n) ->
                              Json.Obj
                                [ ("le", Json.Float le); ("count", Json.Int n) ])
                            hs.hs_buckets) );
                   ] ))
             sn.sn_histograms) );
    ]

let to_json () = snapshot_to_json (snapshot ())
