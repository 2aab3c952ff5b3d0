(** Result reporting: FlowDroid-style XML output and text summaries.

    Reports "include full path information" (Section 5): each result
    carries the sink, the source, and the reconstructed chain of
    propagation statements, in the XML shape FlowDroid's result files
    use ([DataFlowResults]/[Results]/[Result]/[Sink]+[Sources]). *)

val to_xml_string : ?completeness:string -> Infoflow.result -> string
(** the rendered document, with XML declaration; parses back with
    {!Fd_xml.Xml.parse_string} *)

val fallback_to_xml_string : Infoflow.fallback -> string
(** a ladder run's winning result, stamped with its completeness
    marker *)

val summary : Infoflow.result -> string
(** one-line digest: flow count by sink category, time, reachable
    methods, propagations *)

val outcome_line : Infoflow.result -> string
(** [outcome: <state>] — the one-line summary the CLI prints for
    incomplete runs *)

val fallback_summary : Infoflow.fallback -> string
(** one-line digest of a ladder run: completeness, per-rung outcomes,
    final flow count *)

val witness_lines : Bidi.finding -> string list
(** a finding's provenance witness rendered for the CLI's
    [--explain] output, one indented line per derivation step; [[]]
    when the finding carries no witness *)

val witnesses_json : Bidi.finding list -> Fd_obs.Json.t
(** the [witnesses] array for [--stats-json]: per witnessed finding,
    the source/sink endpoints (statement ids and tags) and the full
    step list ([node]/[stmt]/[fact]/[kind] per step) *)
