(** Pretty-printing of µJimple programs in the textual format.  Output
    parses back with {!Parser} (round-trip tested on the whole
    benchmark corpus). *)

val class_to_string : Jclass.t -> string
val body_to_string : Body.t -> string

val cfg_to_string : Body.t -> string
(** [idx: stmt -> \[succs\]] lines — the rendering used to display
    Figure 1's dummy-main CFG *)
