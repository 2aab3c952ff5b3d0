(** Plain-text table rendering, used to reproduce the paper's tables
    (Table 1, Table 2) on stdout. *)

type cell = string

type row =
  | Row of cell list  (** an ordinary data row *)
  | Sep  (** a horizontal separator *)
  | Section of string
      (** a full-width section header, e.g. a DroidBench category *)

type t

val make : header:cell list -> row list -> t
(** [make ~header rows] builds a table; [header] fixes the column
    count. *)

val render : t -> string
(** [render t] renders aligned text, one line per row, with a
    separator under the header. *)

val pct : int -> int -> string
(** [pct num den] formats a percentage the way the paper does
    (["93%"]); ["n/a"] when [den = 0]. *)

val f_measure : float -> float -> float
(** [f_measure p r] is the harmonic mean [2pr/(p+r)], Table 1's bottom
    line. *)
