(** Provenance edges: how each (node, fact) pair entered the solver.

    When enabled ({!Fd_core.Config.t.provenance} / [--provenance]),
    the solvers record one compact edge per distinct path edge they
    create: the predecessor (node, fact) pair it was derived from and
    the flow-function kind that derived it.  Pairs are identified by
    the solver's own interned integer ids, so an edge is three ints
    and a tag.

    Recording is {e first-wins}: with a FIFO worklist the first
    derivation of a pair is its breadth-first discovery, so walking
    predecessor links with {!trace} reconstructs an (approximately)
    shortest derivation — the witness path surfaced by
    [flowdroid_cli --explain]. *)

(** the flow-function kind that derived a pair from its predecessor *)
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

val string_of_kind : kind -> string

type edge = { pe_pred_node : int; pe_pred_fact : int; pe_kind : kind }

type t

val create : unit -> t

val record :
  t ->
  node:int ->
  fact:int ->
  pred_node:int ->
  pred_fact:int ->
  kind:kind ->
  unit
(** record how [(node, fact)] was derived; first-wins — later
    derivations of a pair already recorded are ignored.  A negative
    [pred_node] marks a root (seed) with no predecessor. *)

val trace : t -> node:int -> fact:int -> (int * int * kind) list
(** the derivation chain of [(node, fact)], oldest step first and
    ending with the pair itself; each element is [(node, fact, kind)]
    where [kind] says how that pair was derived from the previous
    element.  Empty when the pair was never recorded. *)

val approx_bytes : t -> int
(** rough live heap size of the store, for the memory gauges *)
