(** Live locals: a backward may-analysis over a body's CFG (see the
    interface). *)

open Stmt

(* bits per set word: every bit of an OCaml int *)
let bits = Sys.int_size

type t = {
  names : string array;  (** the locals some statement reads, sorted *)
  words : int;  (** set words per statement *)
  live : int array;
      (** statement [i]'s live-in set in words [i * words] to
          [(i + 1) * words - 1]; bit [j] stands for [names.(j)] *)
}

(* [names]'s index of [name], or -1 *)
let index names name =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      match String.compare name names.(mid) with
      | 0 -> mid
      | c when c < 0 -> go lo mid
      | _ -> go (mid + 1) hi
  in
  go 0 (Array.length names)

let live_in t i x =
  let j = index t.names x.l_name in
  j >= 0 && (t.live.((i * t.words) + (j / bits)) lsr (j mod bits)) land 1 = 1

(* the distinct names of the locals [b] reads, sorted: every read
   collected into one array, sorted, then compacted in place *)
let read_names b =
  let n = Body.length b in
  let reads = ref (Array.make 16 "") and count = ref 0 in
  let push x =
    if !count = Array.length !reads then begin
      let a = Array.make (2 * !count) "" in
      Array.blit !reads 0 a 0 !count;
      reads := a
    end;
    !reads.(!count) <- x.l_name;
    incr count
  in
  for i = 0 to n - 1 do
    Body.iter_uses push (Body.stmt b i)
  done;
  let reads = Array.sub !reads 0 !count in
  Array.sort String.compare reads;
  let distinct = ref 0 in
  Array.iteri
    (fun k x ->
      if k = 0 || not (String.equal x reads.(!distinct - 1)) then begin
        reads.(!distinct) <- x;
        incr distinct
      end)
    reads;
  Array.sub reads 0 !distinct

let analyze b =
  let n = Body.length b in
  let names = read_names b in
  let words = (Array.length names + bits - 1) / bits in
  let live = Array.make (n * words) 0 in
  if words > 0 then begin
    (* per-statement read sets, and the one local an assignment
       defines (-1 for none: identity statements define nothing
       here); dropped with the fixpoint *)
    let use = Array.make (n * words) 0 and def = Array.make n (-1) in
    let cur = ref 0 in
    let add_use x =
      let j = index names x.l_name in
      let w = (!cur * words) + (j / bits) in
      use.(w) <- use.(w) lor (1 lsl (j mod bits))
    in
    for i = 0 to n - 1 do
      let s = Body.stmt b i in
      cur := i;
      Body.iter_uses add_use s;
      match s.s_kind with
      | Assign (Llocal x, _) -> def.(i) <- index names x.l_name
      | _ -> ()
    done;
    (* live-in(i) = use(i) ∪ (∪ live-in(succ) \ def(i)), swept from
       the last statement to the first until a sweep changes nothing;
       the least fixpoint does not depend on the order *)
    let out = Array.make words 0 in
    let rec join = function
      | [] -> ()
      | s :: rest ->
          for w = 0 to words - 1 do
            out.(w) <- out.(w) lor live.((s * words) + w)
          done;
          join rest
    in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = n - 1 downto 0 do
        Array.fill out 0 words 0;
        join (Body.succs b i);
        let d = def.(i) in
        if d >= 0 then
          out.(d / bits) <- out.(d / bits) land lnot (1 lsl (d mod bits));
        for w = 0 to words - 1 do
          let v = out.(w) lor use.((i * words) + w) in
          if v <> live.((i * words) + w) then begin
            live.((i * words) + w) <- v;
            changed := true
          end
        done
      done
    done
  end;
  { names; words; live }
