(** Bottom-up fixpoints over a method graph's strongly connected
    components.

    The solver's call-tree gates and the summary store's method
    digests are both values a method inherits from everything it
    reaches, where the members of a recursive cycle reach each other
    and so share one value.  {!condense} computes such a value once per
    component, callees first. *)

val condense :
  'a Mkey.Tbl.t ->
  visit:(Mkey.t -> 'b * Mkey.t list) ->
  finish:((Mkey.t * 'b * Mkey.t list) list -> 'a) ->
  Mkey.t ->
  'a
(** [condense memo ~visit ~finish m] is [m]'s value in [memo], walking
    the methods [m] reaches that [memo] does not hold yet with
    Tarjan's algorithm (an explicit stack, so deep call chains do not
    grow the OCaml stack).

    [visit m] is called once per walked method and returns its own
    contribution and its successors.  [finish members] is called once
    per component, with each member's contribution and successors;
    the value it returns is stored in [memo] under every member.  When
    it runs, every component the members reach is already in [memo]:
    a member's successor absent from [memo] is in the same component.
    Methods already in [memo] are neither visited nor entered. *)
