(** A solver's last events as int triples (see the interface).

    A plain circular buffer over one flat int array, three slots per
    event: single-writer, overwrite-on-wrap, and a push is three int
    stores and two counter updates, with no allocation. *)

let capacity = 16

type t = {
  r_buf : int array;  (** [3 * capacity] slots *)
  mutable r_next : int;  (** event slot the next push writes *)
  mutable r_pushed : int;  (** total pushes ever, monotonic *)
}

let create () =
  { r_buf = Array.make (3 * capacity) 0; r_next = 0; r_pushed = 0 }

let push r a b c =
  let i = 3 * r.r_next in
  r.r_buf.(i) <- a;
  r.r_buf.(i + 1) <- b;
  r.r_buf.(i + 2) <- c;
  r.r_next <- (if r.r_next = capacity - 1 then 0 else r.r_next + 1);
  r.r_pushed <- r.r_pushed + 1

(* oldest first: when the ring has wrapped, the oldest event sits at
   [r_next] (the slot the next push would overwrite) *)
let to_list r =
  let start = if r.r_pushed <= capacity then 0 else r.r_next in
  List.init (min r.r_pushed capacity) (fun i ->
      let j = 3 * ((start + i) mod capacity) in
      (r.r_buf.(j), r.r_buf.(j + 1), r.r_buf.(j + 2)))

let render r f =
  let earlier = r.r_pushed - capacity in
  String.concat " | " (List.map (fun (a, b, c) -> f a b c) (to_list r))
  ^ if earlier > 0 then Printf.sprintf " (+%d earlier)" earlier else ""
