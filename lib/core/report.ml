(** Result reporting: FlowDroid-style XML output and text summaries.

    The reports "include full path information" (Section 5): each
    result carries the sink, the source, and the reconstructed chain
    of propagation statements, serialised in the XML shape FlowDroid's
    result files use ([DataFlowResults]/[Results]/[Result]/
    [Sink]+[Sources]). *)

open Fd_callgraph
module X = Fd_xml.Xml
module SS = Fd_frontend.Sourcesink

let node_attr n = Icfg.string_of_node n

(** [finding_to_xml fd] serialises one flow. *)
let finding_to_xml (fd : Bidi.finding) =
  X.Element
    ( "Result",
      [],
      [
        X.Element
          ( "Sink",
            [
              ("Statement", node_attr fd.Bidi.f_sink_node);
              ("Category", SS.string_of_category fd.Bidi.f_sink_cat);
            ]
            @ (match fd.Bidi.f_sink_tag with
              | Some t -> [ ("Tag", t) ]
              | None -> []),
            [] );
        X.Element
          ( "Sources",
            [],
            [
              X.Element
                ( "Source",
                  [
                    ("Statement", node_attr fd.Bidi.f_source.Taint.si_node);
                    ( "Category",
                      SS.string_of_category fd.Bidi.f_source.Taint.si_category );
                    ("Description", fd.Bidi.f_source.Taint.si_desc);
                  ]
                  @ (match fd.Bidi.f_source.Taint.si_tag with
                    | Some t -> [ ("Tag", t) ]
                    | None -> []),
                  [
                    X.Element
                      ( "TaintPath",
                        [],
                        List.map
                          (fun n ->
                            X.Element
                              ("PathElement", [ ("Statement", node_attr n) ], []))
                          fd.Bidi.f_path );
                  ] );
            ] );
      ] )

(* TerminationState values mirror FlowDroid's result-file vocabulary,
   extended with the deadline/cancel/crash states of the resilience
   layer *)
let termination_state (o : Fd_resilience.Outcome.t) =
  match o with
  | Fd_resilience.Outcome.Complete -> "Success"
  | Fd_resilience.Outcome.Budget_exhausted -> "DataFlowIncomplete"
  | Fd_resilience.Outcome.Deadline_exceeded -> "DataFlowTimeout"
  | Fd_resilience.Outcome.Cancelled -> "Cancelled"
  | Fd_resilience.Outcome.Crashed _ -> "Crashed"

(** [to_xml ?completeness result] serialises a whole analysis result;
    [completeness] (from the degradation ladder) is attached as an
    attribute when given. *)
let to_xml ?completeness (result : Infoflow.result) =
  let stats = result.Infoflow.r_stats in
  X.Element
    ( "DataFlowResults",
      [ ("FileFormatVersion", "100");
        ("TerminationState", termination_state stats.Infoflow.st_outcome) ]
      @ (match completeness with
        | Some c -> [ ("Completeness", c) ]
        | None -> []),
      [
        X.Element
          ( "Results",
            [],
            List.map finding_to_xml result.Infoflow.r_findings );
        X.Element
          ( "PerformanceData",
            [],
            [
              X.Element
                ( "PerformanceEntry",
                  [ ("Name", "TotalRuntimeSeconds");
                    ("Value", Printf.sprintf "%.4f" stats.Infoflow.st_time) ],
                  [] );
              X.Element
                ( "PerformanceEntry",
                  [ ("Name", "ReachableMethods");
                    ("Value", string_of_int stats.Infoflow.st_reachable) ],
                  [] );
              X.Element
                ( "PerformanceEntry",
                  [ ("Name", "PathEdgePropagations");
                    ("Value", string_of_int stats.Infoflow.st_propagations) ],
                  [] );
            ] );
      ] )

(** [to_xml_string ?completeness result] renders the XML document. *)
let to_xml_string ?completeness result =
  X.to_string ~prolog:"<?xml version=\"1.0\" encoding=\"utf-8\"?>\n"
    (to_xml ?completeness result)

(** [fallback_to_xml_string fb] renders a ladder run: the winning
    result stamped with its completeness marker. *)
let fallback_to_xml_string (fb : Infoflow.fallback) =
  to_xml_string
    ~completeness:(Infoflow.string_of_completeness fb.Infoflow.fb_completeness)
    fb.Infoflow.fb_result

(** [summary result] is a short human-readable digest. *)
let summary (result : Infoflow.result) =
  let n = List.length result.Infoflow.r_findings in
  let by_cat =
    List.fold_left
      (fun acc (fd : Bidi.finding) ->
        let c = SS.string_of_category fd.Bidi.f_sink_cat in
        let prev = Option.value (List.assoc_opt c acc) ~default:0 in
        (c, prev + 1) :: List.remove_assoc c acc)
      [] result.Infoflow.r_findings
  in
  Printf.sprintf "%d flow(s)%s; %.3f s, %d reachable methods, %d propagations"
    n
    (if by_cat = [] then ""
     else
       " ("
       ^ String.concat ", "
           (List.map (fun (c, k) -> Printf.sprintf "%s: %d" c k) by_cat)
       ^ ")")
    result.Infoflow.r_stats.Infoflow.st_time
    result.Infoflow.r_stats.Infoflow.st_reachable
    result.Infoflow.r_stats.Infoflow.st_propagations

(** [outcome_line result] is the one-line [outcome:] summary the CLI
    prints for incomplete runs. *)
let outcome_line (result : Infoflow.result) =
  Printf.sprintf "outcome: %s"
    (Fd_resilience.Outcome.to_string result.Infoflow.r_stats.Infoflow.st_outcome)

(** [fallback_summary fb] is a one-line digest of a ladder run:
    completeness, per-rung outcomes, final flow count. *)
let fallback_summary (fb : Infoflow.fallback) =
  Printf.sprintf "outcome: %s [%s]; %d flow(s)"
    (Infoflow.string_of_completeness fb.Infoflow.fb_completeness)
    (String.concat "; "
       (List.map
          (fun (a : Infoflow.attempt) ->
            Printf.sprintf "%s: %s" a.Infoflow.at_label
              (Fd_resilience.Outcome.to_string a.Infoflow.at_outcome))
          fb.Infoflow.fb_attempts))
    (List.length fb.Infoflow.fb_result.Infoflow.r_findings)

(* ---------------- provenance witnesses ---------------- *)

(** [witness_lines fd] renders a finding's provenance witness for the
    CLI's [--explain] output, one indented line per step. *)
let witness_lines (fd : Bidi.finding) =
  List.map
    (fun (ws : Bidi.witness_step) ->
      Printf.sprintf "      [%-14s] %s  %s   {%s}" ws.Bidi.ws_kind
        (node_attr ws.Bidi.ws_node) ws.Bidi.ws_stmt ws.Bidi.ws_fact)
    fd.Bidi.f_witness

let json_of_tag = function
  | Some t -> Fd_obs.Json.String t
  | None -> Fd_obs.Json.Null

(** [witnesses_json findings] is the [witnesses] array for
    [--stats-json]: one entry per finding that carries a witness, with
    the source/sink endpoints and every derivation step. *)
let witnesses_json findings =
  Fd_obs.Json.List
    (List.filter_map
       (fun (fd : Bidi.finding) ->
         match fd.Bidi.f_witness with
         | [] -> None
         | steps ->
             Some
               (Fd_obs.Json.Obj
                  [
                    ( "source",
                      Fd_obs.Json.String (node_attr fd.Bidi.f_source.Taint.si_node)
                    );
                    ("source_tag", json_of_tag fd.Bidi.f_source.Taint.si_tag);
                    ("sink", Fd_obs.Json.String (node_attr fd.Bidi.f_sink_node));
                    ("sink_tag", json_of_tag fd.Bidi.f_sink_tag);
                    ( "steps",
                      Fd_obs.Json.List
                        (List.map
                           (fun (ws : Bidi.witness_step) ->
                             Fd_obs.Json.Obj
                               [
                                 ( "node",
                                   Fd_obs.Json.String (node_attr ws.Bidi.ws_node)
                                 );
                                 ("stmt", Fd_obs.Json.String ws.Bidi.ws_stmt);
                                 ("fact", Fd_obs.Json.String ws.Bidi.ws_fact);
                                 ("kind", Fd_obs.Json.String ws.Bidi.ws_kind);
                               ])
                           steps) );
                  ]))
       findings)
