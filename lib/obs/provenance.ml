(** Compact provenance edges for witness-path reconstruction (see the
    interface).

    The store is one hash table from an interned (node id, fact id)
    pair to the edge that *first* created it.  First-wins matters: the
    solvers' worklists are FIFO, so the first recording of a pair is
    its breadth-first discovery — following predecessor links
    therefore yields an (approximately) shortest derivation, and since
    a predecessor pair always exists before the pair it derives, the
    chain is acyclic by construction (a step cap guards the walk
    anyway). *)

(** how a (node, fact) pair was derived from its predecessor *)
type kind =
  | Seed  (** entry-point seeding of the zero fact *)
  | Source  (** a source statement generated the first taint *)
  | Normal  (** intra-procedural flow function *)
  | Call  (** descent into a callee (argument passing) *)
  | Return  (** summary application / exit back into a caller *)
  | Call_to_return  (** caller-side flow across a call *)
  | Alias  (** backward alias search spawned at a heap write *)
  | Backward  (** a step of the backward alias solver *)
  | Inject  (** alias handed back to the forward solver *)

let string_of_kind = function
  | Seed -> "seed"
  | Source -> "source"
  | Normal -> "normal"
  | Call -> "call"
  | Return -> "return"
  | Call_to_return -> "call-to-return"
  | Alias -> "alias"
  | Backward -> "backward"
  | Inject -> "inject"

type edge = { pe_pred_node : int; pe_pred_fact : int; pe_kind : kind }

(* fd_obs sits below fd_util in the library stack, so the pair hash is
   local: the same multiply-xor mix the interning layer uses *)
module I2_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a, b) (c, d) = a = c && b = d
  let hash (a, b) = (a * 0x01000193) lxor b
end)

type t = { edges : edge I2_tbl.t }

let create () = { edges = I2_tbl.create 1024 }

(* rough live-size estimate: per binding one boxed (int, int) key
   (4 words), one edge record (4 words), and ~3 words of bucket
   overhead — 11 words *)
let approx_bytes t = I2_tbl.length t.edges * 11 * (Sys.word_size / 8)

let record t ~node ~fact ~pred_node ~pred_fact ~kind =
  let key = (node, fact) in
  if not (I2_tbl.mem t.edges key) then
    I2_tbl.replace t.edges key
      { pe_pred_node = pred_node; pe_pred_fact = pred_fact; pe_kind = kind }

let lookup t ~node ~fact = I2_tbl.find_opt t.edges (node, fact)

(* walk capped well above any realistic derivation depth; the budget
   bounds path edges at 2M, so 1M steps can only mean a logic error *)
let max_trace_steps = 1_000_000

let trace t ~node ~fact =
  let rec go acc steps node fact =
    match lookup t ~node ~fact with
    | None -> acc
    | Some e ->
        let acc = (node, fact, e.pe_kind) :: acc in
        if e.pe_pred_node < 0 || steps >= max_trace_steps then acc
        else go acc (steps + 1) e.pe_pred_node e.pe_pred_fact
  in
  go [] 0 node fact
