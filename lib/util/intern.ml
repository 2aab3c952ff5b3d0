(** Hash-consing pools: map structurally-equal values to small dense
    integer ids (see the interface for the design rationale). *)

(* ------------------------------------------------------------------ *)
(* hash combinators                                                    *)
(* ------------------------------------------------------------------ *)

(* Boost-style mixing: asymmetric, so [combine a b <> combine b a],
   and every bit of both operands reaches the result.  The magic
   constant is the 64-bit golden ratio truncated to OCaml's 63-bit
   int range. *)
let golden = 0x4f1bbcdcbfa53e0b (* 0x9e3779b97f4a7c15 lsr 1 *)

let combine h v = (h lxor (v + golden + (h lsl 6) + (h lsr 2))) land max_int

let fold_hash hash_elt seed xs =
  List.fold_left (fun h x -> combine h (hash_elt x)) seed xs

(* ------------------------------------------------------------------ *)
(* pools                                                               *)
(* ------------------------------------------------------------------ *)

module type HASHED = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

(* every pool id, and every id the solvers allocate themselves, stays
   below 2^31, so two ids pack into one non-negative int
   ([hi lsl 31 lor lo]) for {!Pair_set} keys *)
let id_bound = 1 lsl 31

let check_id what i =
  if i >= id_bound then
    failwith (Printf.sprintf "Intern: more than 2^31 %s ids" what)

module Make (T : HASHED) = struct
  module Tbl = Hashtbl.Make (T)

  type pool = {
    p_ids : int Tbl.t;
    mutable p_values : T.t array;  (** id -> value, dense *)
    mutable p_next : int;
    mutable p_hits : int;
    mutable p_misses : int;
    (* one-slot cache: re-interning the last id's representative
       (e.g. a new fact interned for its calling context and then for
       its path edge) skips the structural hash entirely; comparing
       against [p_values] keeps the cache allocation-free *)
    mutable p_last_id : int;
  }

  let create ?(size = 256) () =
    {
      p_ids = Tbl.create size;
      p_values = [||];
      p_next = 0;
      p_hits = 0;
      p_misses = 0;
      p_last_id = -1;
    }

  let grow p v =
    check_id "pool" p.p_next;
    let cap = Array.length p.p_values in
    if p.p_next = cap then begin
      let bigger = Array.make (max 64 (2 * cap)) v in
      Array.blit p.p_values 0 bigger 0 cap;
      p.p_values <- bigger
    end;
    p.p_values.(p.p_next) <- v;
    p.p_next <- p.p_next + 1

  let id p v =
    let last = p.p_last_id in
    if last >= 0 && p.p_values.(last) == v then begin
      p.p_hits <- p.p_hits + 1;
      last
    end
    else begin
      let i =
        match Tbl.find p.p_ids v with
        | i ->
            p.p_hits <- p.p_hits + 1;
            i
        | exception Not_found ->
            let i = p.p_next in
            grow p v;
            Tbl.replace p.p_ids v i;
            p.p_misses <- p.p_misses + 1;
            i
      in
      p.p_last_id <- i;
      i
    end

  let find_id p v = Tbl.find_opt p.p_ids v

  (* [p_values] has spare capacity filled with whatever value [grow]
     last copied in, so indexing past [p_next] would silently return
     an unrelated (but valid-looking) interned value — bound-check
     against the allocated prefix, not the physical array. *)
  let value p i =
    if i < 0 || i >= p.p_next then
      invalid_arg
        (Printf.sprintf "Intern.value: id %d out of bounds (size %d)" i
           p.p_next);
    p.p_values.(i)
  let size p = p.p_next
  let hits p = p.p_hits
  let misses p = p.p_misses
end

(* ------------------------------------------------------------------ *)
(* flat id-keyed solver structures                                     *)
(* ------------------------------------------------------------------ *)

module Pair_set = struct
  (* open addressing with linear probing over one flat array: slot [i]
     is [slots.(2i), slots.(2i+1)], and a first component of [empty]
     marks a free slot.  At most three quarters of the slots are used:
     past that the array doubles. *)
  type t = {
    mutable slots : int array;
    mutable mask : int;  (** slot count - 1; the slot count is a power of 2 *)
    mutable count : int;
  }

  let empty = -1

  let create ?(capacity = 16) () =
    let rec pow2 n = if n >= capacity then n else pow2 (2 * n) in
    let cap = pow2 2 in
    { slots = Array.make (2 * cap) empty; mask = cap - 1; count = 0 }

  (* multiply-xorshift mix: the low bits (the probe start) depend on
     every bit of both components *)
  let hash a b =
    let h = (a * 0x9e3779b97f4a7c1) + b in
    let h = (h lxor (h lsr 31)) * 0xbf58476d1ce4e5b in
    h lxor (h lsr 30)

  (* the slot holding (a, b), or the free slot where it would go *)
  let rec find slots mask a b i =
    let x = Array.unsafe_get slots (2 * i) in
    if x = empty || (x = a && Array.unsafe_get slots ((2 * i) + 1) = b) then i
    else find slots mask a b ((i + 1) land mask)

  let slot s a b = find s.slots s.mask a b (hash a b land s.mask)
  let occupied s i = s.slots.(2 * i) <> empty
  let mem s a b = occupied s (slot s a b)

  let grow s =
    let old = s.slots in
    let cap = 2 * (s.mask + 1) in
    let slots = Array.make (2 * cap) empty and mask = cap - 1 in
    for i = 0 to s.mask do
      let a = old.(2 * i) in
      if a <> empty then begin
        let b = old.((2 * i) + 1) in
        let j = find slots mask a b (hash a b land mask) in
        slots.(2 * j) <- a;
        slots.((2 * j) + 1) <- b
      end
    done;
    s.slots <- slots;
    s.mask <- mask

  let insert_at s i a b =
    if a < 0 then invalid_arg "Intern.Pair_set: negative first component";
    if occupied s i then invalid_arg "Intern.Pair_set.insert_at: occupied slot";
    s.slots.(2 * i) <- a;
    s.slots.((2 * i) + 1) <- b;
    s.count <- s.count + 1;
    if 4 * s.count > 3 * (s.mask + 1) then grow s

  let add s a b =
    let i = slot s a b in
    if occupied s i then false
    else begin
      insert_at s i a b;
      true
    end

  let length s = s.count

  (* the record (header + 3 fields) and the array (header + slots) *)
  let words s = 4 + 1 + Array.length s.slots
end

module Int_fifo = struct
  (* live items are [buf.(head) .. buf.(tail - 1)] *)
  type t = { mutable buf : int array; mutable head : int; mutable tail : int }

  let create ?(capacity = 32) () =
    { buf = Array.make (max 1 capacity) 0; head = 0; tail = 0 }

  let is_empty q = q.head = q.tail
  let length q = q.tail - q.head

  (* full at the end: slide the live items down when at least half
     the array is consumed, otherwise double it *)
  let make_room q =
    let n = q.tail - q.head and cap = Array.length q.buf in
    if 2 * q.head >= cap then Array.blit q.buf q.head q.buf 0 n
    else begin
      let bigger = Array.make (2 * cap) 0 in
      Array.blit q.buf q.head bigger 0 n;
      q.buf <- bigger
    end;
    q.head <- 0;
    q.tail <- n

  let push q x =
    if q.tail = Array.length q.buf then make_room q;
    Array.unsafe_set q.buf q.tail x;
    q.tail <- q.tail + 1

  let pop q =
    if q.head = q.tail then invalid_arg "Intern.Int_fifo.pop: empty";
    let x = Array.unsafe_get q.buf q.head in
    q.head <- q.head + 1;
    if q.head = q.tail then begin
      q.head <- 0;
      q.tail <- 0
    end;
    x

  (* the record (header + 3 fields) and the array (header + slots) *)
  let words q = 4 + 1 + Array.length q.buf
end
