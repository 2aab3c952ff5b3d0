(** Hash-consing pools: intern structurally-equal values into small
    dense integer ids.

    The IFDS solvers spend much of their time hashing and comparing
    deep structures (access paths, taint abstractions, method keys) as
    hash-table keys.  A pool assigns each distinct value — "distinct"
    by the value type's own [equal] — a dense id [0, 1, 2, …]; after
    one structural hash at interning time, every further table
    operation is integer-keyed: O(1), allocation-free, and immune to
    the polymorphic-hash depth truncation that makes deep access paths
    collide.

    Pools are {e not} thread-safe; the intended discipline is one pool
    per solver instance (solvers are sequential — app-level
    parallelism gives each domain its own solvers, see
    {!Fd_util.Pool}).

    The module also exposes the fold-style hash combinators the
    explicit [hash] functions of [Access_path], [Taint] and [Mkey] are
    built from. *)

val combine : int -> int -> int
(** [combine h v] mixes hash value [v] into accumulator [h];
    asymmetric and non-truncating, never negative. *)

val fold_hash : ('a -> int) -> int -> 'a list -> int
(** [fold_hash hash_elt seed xs] combines the hash of every element of
    [xs] into [seed] — unlike [Hashtbl.hash], no element is ever
    skipped. *)

module type HASHED = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

val id_bound : int
(** [2^31]: every pool id, and every dense id a solver allocates
    itself, is below it, so two ids pack into one non-negative int
    ([hi lsl 31 lor lo]) — the key shape {!Pair_set} is used with.
    Pools enforce it when they grow; solvers call {!check_id} where
    they create ids, never per lookup. *)

val check_id : string -> int -> unit
(** [check_id what i] fails when the fresh id [i] reaches {!id_bound};
    [what] names the id kind in the message. *)

module Make (T : HASHED) : sig
  type pool

  val create : ?size:int -> unit -> pool

  val id : pool -> T.t -> int
  (** [id p v] is the unique dense id of [v] in [p], interning it on
      first sight.  [id p a = id p b] iff [T.equal a b].  A one-slot
      cache makes re-interning the last id's representative (the value
      {!value} returns) O(1) without re-hashing or allocating; every
      lookup of an already-interned value counts as a hit, every new
      value as a miss.
      @raise Failure when the pool would exceed {!id_bound} ids *)

  val find_id : pool -> T.t -> int option
  (** like {!id} but never interns *)

  val value : pool -> int -> T.t
  (** [value p i] is the representative interned under id [i].
      @raise Invalid_argument when [i] was never allocated ([i < 0] or
      [i >= size p]) — unallocated slots inside the array's spare
      capacity hold garbage and are never exposed. *)

  val size : pool -> int
  val hits : pool -> int
  val misses : pool -> int
end

(** {1 Flat id-keyed structures}

    Solver state keyed on dense ids, in flat [int array]s: no boxed
    key, no bucket and no allocation per entry.  Like the pools they
    are not thread-safe. *)

module Pair_set : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** an empty set of [capacity] slots (default 16, rounded up to a
      power of 2), room for [3/4 * capacity] pairs before it first
      grows *)

  val add : t -> int -> int -> bool
  (** [add s a b] inserts the pair [(a, b)] and is [true] iff it was
      absent.  [a] must be non-negative; [b] is any int.
      @raise Invalid_argument when [a < 0] *)

  val mem : t -> int -> int -> bool

  (** {2 Single-probe insertion}

      [add] and [mem] each probe once; a caller that must test, do
      something, then insert uses the slot API to probe only once. *)

  val slot : t -> int -> int -> int
  (** [slot s a b] is the slot holding [(a, b)], or the free slot
      where it would be inserted.  It stays valid until the set is
      next changed. *)

  val occupied : t -> int -> bool
  (** [occupied s i] is [true] iff slot [i] holds a pair: for
      [i = slot s a b], iff [mem s a b]. *)

  val insert_at : t -> int -> int -> int -> unit
  (** [insert_at s i a b] inserts [(a, b)] at [i = slot s a b],
      growing the set when it is three quarters full; the set must not
      have changed since [slot] was called.
      @raise Invalid_argument when [a < 0] or slot [i] is occupied *)

  val length : t -> int

  val words : t -> int
  (** heap words the set holds: its record and its slot array, exact *)
end
(** A set of int pairs, stored by open addressing with linear probing
    in one flat array that doubles when three quarters full. *)

module Int_fifo : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** an empty queue with room for [capacity] ints (default 32) *)

  val push : t -> int -> unit
  val pop : t -> int
  (** the oldest int; @raise Invalid_argument when empty *)

  val is_empty : t -> bool
  val length : t -> int

  val words : t -> int
  (** heap words the queue holds: its record and its array, exact *)
end
(** A first-in first-out queue of unboxed ints in one growable array.
    When the array is full, the live items slide to its front if at
    least half of it has been popped, and it doubles otherwise.
    Callers push fixed-width records (e.g. id triples) as consecutive
    ints and pop them in the same order. *)
