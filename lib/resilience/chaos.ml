(** Deterministic fault injection (see the .mli). *)

module Prng = Fd_util.Prng

let m_faults = Fd_obs.Metrics.counter "resilience.faults_injected"

type t = {
  c_prng : Prng.t;
  c_rate : float;
  mutable c_injected : int;
}

exception Fault of string

let create ~seed ~rate =
  { c_prng = Prng.create seed; c_rate = max 0.0 (min 1.0 rate);
    c_injected = 0 }

let fired c =
  c.c_injected <- c.c_injected + 1;
  Fd_obs.Metrics.incr m_faults

let should_fail c =
  let hit = c.c_rate > 0.0 && Prng.float c.c_prng 1.0 < c.c_rate in
  if hit then fired c;
  hit

let fail_point c site =
  match c with
  | None -> ()
  | Some c -> if should_fail c then raise (Fault site)

let corrupt_string c s =
  if c.c_rate <= 0.0 || String.length s = 0 then s
  else if Prng.float c.c_prng 1.0 >= c.c_rate then s
  else begin
    fired c;
    let b = Bytes.of_string s in
    let n = 1 + Prng.int c.c_prng 8 in
    for _ = 1 to n do
      let i = Prng.int c.c_prng (Bytes.length b) in
      Bytes.set b i (Char.chr (Prng.int c.c_prng 256))
    done;
    Bytes.to_string b
  end

let faults_injected c = c.c_injected
