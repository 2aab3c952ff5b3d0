(** Span-based phase tracing (see the interface).

    Each domain records spans into its own store ([Domain.DLS]), so
    tracing from inside a {!Fd_util.Pool} worker is safe and lock-free
    on the hot path; stores register themselves in a global list on
    first use, and every read-out ({!spans}, {!aggregate}, exports)
    merges the stores in worker order with parent indices rebased into
    the merged array.  Within one store, spans sit in start order, so
    a parent always precedes its children. *)

type span = {
  sp_name : string;
  sp_start : float;
  sp_dur : float;
  sp_depth : int;
  sp_parent : int;
}

let dummy_span =
  { sp_name = ""; sp_start = 0.; sp_dur = 0.; sp_depth = 0; sp_parent = -1 }

(* one per-domain span store: the owning domain mutates it without
   locking; other domains only read it under [stores_lock] via the
   merge functions below *)
type dstore = {
  ds_tid : int;  (** stable thread id for the Chrome export *)
  mutable ds_spans : span array;
  mutable ds_count : int;
  mutable ds_stack : int list;  (** open spans, indices into [ds_spans] *)
}

let stores_lock = Mutex.create ()
let stores : dstore list ref = ref []
let next_tid = Atomic.make 1
let epoch = Atomic.make nan

let dls_key =
  Domain.DLS.new_key (fun () ->
      let ds =
        {
          ds_tid = Atomic.fetch_and_add next_tid 1;
          ds_spans = Array.make 64 dummy_span;
          ds_count = 0;
          ds_stack = [];
        }
      in
      Mutex.lock stores_lock;
      stores := ds :: !stores;
      Mutex.unlock stores_lock;
      ds)

let my () = Domain.DLS.get dls_key
let now () = Unix.gettimeofday ()

(* the epoch is shared so timestamps line up across domains; it is set
   by whichever domain opens the first span after a reset *)
let ensure_epoch t =
  if Float.is_nan (Atomic.get epoch) then begin
    Mutex.lock stores_lock;
    if Float.is_nan (Atomic.get epoch) then Atomic.set epoch t;
    Mutex.unlock stores_lock
  end

let push ds sp =
  if ds.ds_count = Array.length ds.ds_spans then begin
    let bigger = Array.make (2 * ds.ds_count) sp in
    Array.blit ds.ds_spans 0 bigger 0 ds.ds_count;
    ds.ds_spans <- bigger
  end;
  ds.ds_spans.(ds.ds_count) <- sp;
  ds.ds_count <- ds.ds_count + 1;
  ds.ds_count - 1

let begin_span name =
  let ds = my () in
  let t = now () in
  ensure_epoch t;
  let parent = match ds.ds_stack with [] -> -1 | p :: _ -> p in
  let idx =
    push ds
      {
        sp_name = name;
        sp_start = t -. Atomic.get epoch;
        sp_dur = 0.;
        sp_depth = List.length ds.ds_stack;
        sp_parent = parent;
      }
  in
  ds.ds_stack <- idx :: ds.ds_stack

let end_span () =
  let ds = my () in
  match ds.ds_stack with
  | [] -> invalid_arg "Trace.end_span: no open span"
  | idx :: rest ->
      ds.ds_stack <- rest;
      let sp = ds.ds_spans.(idx) in
      ds.ds_spans.(idx) <-
        { sp with sp_dur = now () -. Atomic.get epoch -. sp.sp_start }

let with_span name f =
  begin_span name;
  Fun.protect ~finally:end_span f

let depth () = List.length (my ()).ds_stack

(* all stores, oldest tid first, snapshotted under the lock *)
let store_list () =
  Mutex.lock stores_lock;
  let ss = List.sort (fun a b -> compare a.ds_tid b.ds_tid) !stores in
  Mutex.unlock stores_lock;
  ss

(* merge every store into one array of [(span, tid)], parent indices
   rebased onto the merged array *)
let merged () =
  let ss = store_list () in
  let total = List.fold_left (fun n ds -> n + ds.ds_count) 0 ss in
  let out = Array.make total (dummy_span, 0) in
  let off = ref 0 in
  List.iter
    (fun ds ->
      for i = 0 to ds.ds_count - 1 do
        let sp = ds.ds_spans.(i) in
        let sp =
          if sp.sp_parent < 0 then sp
          else { sp with sp_parent = sp.sp_parent + !off }
        in
        out.(!off + i) <- (sp, ds.ds_tid)
      done;
      off := !off + ds.ds_count)
    ss;
  out

let spans () = Array.to_list (Array.map fst (merged ()))

let aggregate () =
  let tbl : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (sp, _) ->
      let dur, n =
        match Hashtbl.find_opt tbl sp.sp_name with
        | Some cell -> cell
        | None ->
            let cell = (ref 0., ref 0) in
            Hashtbl.replace tbl sp.sp_name cell;
            cell
      in
      dur := !dur +. sp.sp_dur;
      n := !n + 1)
    (merged ());
  Hashtbl.fold (fun name (dur, n) acc -> (name, !dur, !n) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let reset () =
  Mutex.lock stores_lock;
  List.iter
    (fun ds ->
      ds.ds_count <- 0;
      ds.ds_stack <- [])
    !stores;
  Atomic.set epoch nan;
  Mutex.unlock stores_lock

(* only the owning domain writes its count; the lock orders the write
   against a concurrent merge *)
let reset_domain () =
  let ds = my () in
  if ds.ds_stack = [] then begin
    Mutex.lock stores_lock;
    ds.ds_count <- 0;
    Mutex.unlock stores_lock
  end

let to_chrome_json () =
  let events =
    Array.to_list
      (Array.map
         (fun (sp, tid) ->
           Json.Obj
             [
               ("name", Json.String sp.sp_name);
               ("cat", Json.String "flowdroid");
               ("ph", Json.String "X");
               ("ts", Json.Float (sp.sp_start *. 1e6));
               ("dur", Json.Float (sp.sp_dur *. 1e6));
               ("pid", Json.Int 1);
               ("tid", Json.Int tid);
             ])
         (merged ()))
  in
  Json.Obj
    [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

let to_chrome_string () = Json.to_string ~indent:1 (to_chrome_json ())
