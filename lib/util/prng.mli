(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in this repository flows through this module with
    explicit seeds — the synthetic-corpus experiments (RQ3) are exactly
    reproducible across runs and machines; nothing reads the wall
    clock. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] is a uniform coin flip. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val choose : t -> 'a list -> 'a
(** [choose t xs] picks a uniform element.
    @raise Invalid_argument on the empty list. *)

val shuffle : t -> 'a list -> 'a list
(** [shuffle t xs] is a uniform permutation (Fisher–Yates). *)

val poisson : t -> float -> int
(** [poisson t lambda] samples a Poisson-distributed count with mean
    [lambda] (Knuth's method; suitable for small means such as the
    1.85 leaks/app of RQ3). *)

val split : t -> t
(** [split t] derives an independently seeded generator, advancing
    [t]: gives each generated app its own stream so inserting one app
    does not perturb the others. *)
