(** The flight recorder as a solver extension (see the interface). *)

open Fd_callgraph
module Flight = Fd_obs.Ring.Flight

let make (v : Solver_ext.view) =
  {
    Solver_ext.none with
    start =
      (fun ~entries ->
        (* a later dump must never mix events from a previous run, and
           even a first-tick chaos fault (which can fire before any
           pop) must find a non-empty ring *)
        Flight.clear ();
        Flight.mark (Printf.sprintf "solve.start entries=%d" entries));
    pop_begin =
      (fun ~fw ~node ~fact ->
        Flight.record (fun () ->
            Printf.sprintf "%s %s %s"
              (if fw then "fw.pop" else "bw.pop")
              (Icfg.string_of_node (v.node node))
              (Taint.fact_to_string (v.fact fact))));
    call =
      (fun ~site ~callee ->
        Flight.record (fun () ->
            Printf.sprintf "call-edge %s -> %s" (Icfg.string_of_node site)
              (Mkey.to_string callee)));
    summary =
      (fun ~exit ~fact ->
        Flight.record (fun () ->
            Printf.sprintf "return-edge %s %s" (Icfg.string_of_node exit)
              (Taint.fact_to_string fact)));
  }
