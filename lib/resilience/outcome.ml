(** The typed termination state of an analysis run (see the .mli). *)

type t =
  | Complete
  | Budget_exhausted
  | Deadline_exceeded
  | Cancelled
  | Crashed of string

let is_complete = function Complete -> true | _ -> false

let severity = function
  | Complete -> 0
  | Budget_exhausted -> 1
  | Deadline_exceeded -> 2
  | Cancelled -> 3
  | Crashed _ -> 4

let equal a b = severity a = severity b
let worst a b = if severity a >= severity b then a else b

let to_string = function
  | Complete -> "complete"
  | Budget_exhausted -> "budget-exhausted"
  | Deadline_exceeded -> "deadline-exceeded"
  | Cancelled -> "cancelled"
  | Crashed msg -> "crashed: " ^ msg

let tally runs =
  List.fold_left
    (fun acc (o, degraded) ->
      let key = match o with Crashed _ -> "crashed" | o -> to_string o in
      let key = if degraded then key ^ "+degraded" else key in
      let prev = Option.value (List.assoc_opt key acc) ~default:0 in
      (key, prev + 1) :: List.remove_assoc key acc)
    [] runs
  |> List.sort compare
