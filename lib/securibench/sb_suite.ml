(** The assembled SecuriBench-µ suite (Table 2). *)

let all : Sb_case.t list =
  Sb_aliasing.all @ Sb_arrays.all @ Sb_basic.all @ Sb_collections.all
  @ Sb_misc_groups.datastructure @ Sb_misc_groups.factory
  @ Sb_misc_groups.inter @ Sb_misc_groups.session
  @ Sb_misc_groups.strong_updates

(** Group display order, as in Table 2.  The [n/a] groups exist in the
    original suite but are out of scope for FlowDroid (sanitisation,
    reflection, predicates — Section 6.4) and carry no cases here. *)
let groups =
  [
    "Aliasing"; "Arrays"; "Basic"; "Collections"; "Datastructure"; "Factory";
    "Inter"; "Pred"; "Reflection"; "Sanitizer"; "Session"; "StrongUpdates";
  ]

let na_groups = [ "Pred"; "Reflection"; "Sanitizer" ]

(** [by_group g] is the cases of one group. *)
let by_group g = List.filter (fun c -> c.Sb_case.sb_group = g) all

(** [expected_in g] is the number of expected leaks in a group. *)
let expected_in g =
  List.fold_left
    (fun acc c -> acc + List.length c.Sb_case.sb_expected)
    0 (by_group g)
