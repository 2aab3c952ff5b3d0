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
let index t name =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      match String.compare name t.names.(mid) with
      | 0 -> mid
      | c when c < 0 -> go lo mid
      | _ -> go (mid + 1) hi
  in
  go 0 (Array.length t.names)

let live_in t i x =
  let j = index t x.l_name in
  j >= 0 && (t.live.((i * t.words) + (j / bits)) lsr (j mod bits)) land 1 = 1

let analyze b =
  let n = Body.length b in
  let seen = Hashtbl.create 16 in
  Body.iter b (Body.iter_uses (fun x -> Hashtbl.replace seen x.l_name ()));
  let names = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort String.compare names;
  let words = (Array.length names + bits - 1) / bits in
  let t = { names; words; live = Array.make (n * words) 0 } in
  if words > 0 then begin
    (* per-statement scratch, dropped with the fixpoint: the read set,
       and the one local an assignment defines (-1 for none: identity
       statements define nothing here) *)
    let use = Array.make (n * words) 0 and def = Array.make n (-1) in
    let add set i x =
      let j = index t x.l_name in
      let w = (i * words) + (j / bits) in
      set.(w) <- set.(w) lor (1 lsl (j mod bits))
    in
    Body.iter b (fun s ->
        let i = s.s_idx in
        Body.iter_uses (add use i) s;
        match s.s_kind with
        | Assign (Llocal x, _) -> def.(i) <- index t x.l_name
        | _ -> ());
    (* live-in(i) = use(i) ∪ (∪ live-in(succ) \ def(i)), from the last
       statement backwards; a statement whose set grows requeues its
       predecessors *)
    let queued = Bytes.make n '\001' in
    let work = Queue.create () in
    for i = n - 1 downto 0 do
      Queue.add i work
    done;
    let out = Array.make words 0 in
    while not (Queue.is_empty work) do
      let i = Queue.pop work in
      Bytes.set queued i '\000';
      Array.fill out 0 words 0;
      List.iter
        (fun s ->
          for w = 0 to words - 1 do
            out.(w) <- out.(w) lor t.live.((s * words) + w)
          done)
        (Body.succs b i);
      let d = def.(i) in
      if d >= 0 then
        out.(d / bits) <- out.(d / bits) land lnot (1 lsl (d mod bits));
      let changed = ref false in
      for w = 0 to words - 1 do
        let v = out.(w) lor use.((i * words) + w) in
        if v <> t.live.((i * words) + w) then begin
          t.live.((i * words) + w) <- v;
          changed := true
        end
      done;
      if !changed then
        List.iter
          (fun p ->
            if Bytes.get queued p = '\000' then begin
              Bytes.set queued p '\001';
              Queue.add p work
            end)
          (Body.preds b i)
    done
  end;
  t
