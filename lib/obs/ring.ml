(** Fixed-size event rings and the per-domain flight recorder (see the
    interface).

    The generic ring is a plain circular buffer: single-writer,
    overwrite-on-wrap, O(1) push with no allocation beyond the stored
    value itself.  {!Flight} gives every domain its own ring through
    [Domain.DLS] — the same store-per-domain pattern {!Trace} uses — so
    recording from inside a solver loop is lock-free; only {!Flight.dump}
    (called on the slow path, when a run degrades) touches the data. *)

type 'a t = {
  r_cap : int;
  r_buf : 'a option array;
  mutable r_next : int;  (** slot the next push writes *)
  mutable r_pushed : int;  (** total pushes ever, monotonic *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { r_cap = capacity; r_buf = Array.make capacity None; r_next = 0; r_pushed = 0 }

let pushed r = r.r_pushed
let length r = min r.r_pushed r.r_cap

let push r v =
  r.r_buf.(r.r_next) <- Some v;
  r.r_next <- (r.r_next + 1) mod r.r_cap;
  r.r_pushed <- r.r_pushed + 1

let clear r =
  Array.fill r.r_buf 0 r.r_cap None;
  r.r_next <- 0;
  r.r_pushed <- 0

(* oldest first: when the ring has wrapped, the oldest element sits at
   [r_next] (the slot the next push would overwrite) *)
let to_list r =
  let n = length r in
  let start = if r.r_pushed <= r.r_cap then 0 else r.r_next in
  List.init n (fun i ->
      match r.r_buf.((start + i) mod r.r_cap) with
      | Some v -> v
      | None -> assert false)

(* ---------------- the flight recorder ---------------- *)

module Flight = struct
  (* events are closures so the hot path never formats strings: a push
     costs one closure allocation and one array store; rendering
     happens only at dump time, for at most [capacity] events *)
  let default_capacity = 256

  let dls_key =
    Domain.DLS.new_key (fun () -> create ~capacity:default_capacity)

  let my () = Domain.DLS.get dls_key

  let record f = push (my ()) f
  let mark msg = push (my ()) (fun () -> msg)
  let clear () = clear (my ())
  let recorded () = pushed (my ())

  let dump ?limit () =
    let events = List.map (fun f -> f ()) (to_list (my ())) in
    match limit with
    | None -> events
    | Some k when k >= List.length events -> events
    | Some k ->
        (* keep the *last* k events: the most recent context is what a
           post-mortem wants *)
        let drop = List.length events - k in
        List.filteri (fun i _ -> i >= drop) events

  (* one compact line for embedding into a Diag or a crash message *)
  let dump_line ?(limit = 12) () =
    let total = length (my ()) in
    let events = dump ~limit () in
    let suffix =
      if total > limit then Printf.sprintf " (+%d earlier)" (total - limit)
      else ""
    in
    String.concat " | " events ^ suffix
end
