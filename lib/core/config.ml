(** Engine configuration: FlowDroid's defaults plus the ablation
    switches the benchmark harness sweeps (DESIGN.md experiments
    A1–A3, F3, L3). *)

(* the types are documented in config.mli *)
type precision = {
  must_alias : bool;
  array_index : bool;
  reflection : bool;
  clinit : bool;
}

let no_precision =
  { must_alias = false; array_index = false; reflection = false; clinit = false }

let all_precision =
  { must_alias = true; array_index = true; reflection = true; clinit = true }

let precision_enabled p = p <> no_precision

let string_of_precision p =
  if p = no_precision then "none"
  else if p = all_precision then "all"
  else
    String.concat ","
      (List.filter_map
         (fun (on, name) -> if on then Some name else None)
         [
           (p.must_alias, "must-alias");
           (p.array_index, "array-index");
           (p.reflection, "reflection");
           (p.clinit, "clinit");
         ])

(** [precision_of_string s] parses a comma-separated pass list
    ("must-alias,clinit"), or "all"/"none". *)
let precision_of_string s =
  let parts =
    List.filter_map
      (fun w -> match String.trim w with "" -> None | w -> Some w)
      (String.split_on_char ',' s)
  in
  List.fold_left
    (fun acc w ->
      Result.bind acc (fun p ->
          match w with
          | "none" -> Ok p
          | "all" -> Ok all_precision
          | "must-alias" -> Ok { p with must_alias = true }
          | "array-index" -> Ok { p with array_index = true }
          | "reflection" -> Ok { p with reflection = true }
          | "clinit" -> Ok { p with clinit = true }
          | w ->
              Error
                (Printf.sprintf
                   "unknown precision pass %S (expected \
                    all|none|must-alias|array-index|reflection|clinit)"
                   w)))
    (Ok no_precision) parts

type t = {
  max_access_path : int;
  lifecycle : bool;
  callbacks : bool;
  per_component_callbacks : bool;
  context_injection : bool;
  activation_statements : bool;
  alias_search : bool;
  cg_algorithm : Fd_callgraph.Callgraph.algorithm;
  max_propagations : int;
  deadline_s : float option;
  precision : precision;
  provenance : bool;
  profile : bool;
  summary_store : string option;
  targeted : string list;
  icc : bool;
}

let default =
  {
    max_access_path = 5;
    lifecycle = true;
    callbacks = true;
    per_component_callbacks = true;
    context_injection = true;
    activation_statements = true;
    alias_search = true;
    cg_algorithm = Fd_callgraph.Callgraph.Cha;
    max_propagations = 2_000_000;
    deadline_s = None;
    precision = no_precision;
    provenance = false;
    profile = false;
    summary_store = None;
    targeted = [];
    icc = false;
  }

(* ------------------------------------------------------------------ *)
(* the canonical encoding                                              *)
(* ------------------------------------------------------------------ *)

module Json = Fd_obs.Json

type store_key = Keys_summaries | Keys_findings | Unkeyed

type field = { key : string; value : Json.t; store : store_key }

(* [c] is destructured without a wildcard, so a new field does not
   compile here until it has a key and a store decision *)
let encode
    { max_access_path; lifecycle; callbacks; per_component_callbacks;
      context_injection; activation_statements; alias_search; cg_algorithm;
      max_propagations; deadline_s; precision; provenance; profile;
      summary_store; targeted; icc } =
  let keyed store key value = { key; value; store } in
  let summaries = keyed Keys_summaries and findings = keyed Keys_findings in
  let unkeyed = keyed Unkeyed in
  let opt f = function Some v -> f v | None -> Json.Null in
  [
    summaries "k" (Json.Int max_access_path);
    summaries "prec" (Json.String (string_of_precision precision));
    summaries "cg"
      (Json.String
         (match cg_algorithm with
         | Fd_callgraph.Callgraph.Cha -> "cha"
         | Fd_callgraph.Callgraph.Rta -> "rta"));
    summaries "act" (Json.Bool activation_statements);
    summaries "cxi" (Json.Bool context_injection);
    summaries "alias" (Json.Bool alias_search);
    (* targeted mode restricts which sinks are even considered, so hot
       entries must never cross between modes (or between different
       targeted sink sets) *)
    findings "targeted"
      (Json.List (List.map (fun s -> Json.String s) targeted));
    (* the ICC tier adds and drops findings after the solve; digests
       must not cross between tiers even though the solver is
       unchanged *)
    findings "icc" (Json.Bool icc);
    (* entry-point switches: they choose which methods the dummy main
       calls, not what a callee's summary says; the method digest keys
       the code a summary covers *)
    unkeyed "lifecycle" (Json.Bool lifecycle);
    unkeyed "callbacks" (Json.Bool callbacks);
    unkeyed "per_component_callbacks" (Json.Bool per_component_callbacks);
    (* budget knobs: only [Complete] runs persist, and a complete
       summary does not depend on how much budget was left *)
    unkeyed "max_propagations" (Json.Int max_propagations);
    unkeyed "deadline_s" (opt (fun s -> Json.Float s) deadline_s);
    (* the store stays off under provenance ([Summary.config_allows]) *)
    unkeyed "provenance" (Json.Bool provenance);
    (* the profiler observes the solve without changing it *)
    unkeyed "profile" (Json.Bool profile);
    (* the store's location, not its contents' meaning *)
    unkeyed "summary_store" (opt (fun d -> Json.String d) summary_store);
  ]

let decode base options =
  let apply c (key, v) =
    match (key, v) with
    | "k", Json.Int k when k >= 1 -> Ok { c with max_access_path = k }
    | "k", Json.Int _ -> Error "option \"k\": must be >= 1"
    | "prec", Json.String s ->
        Result.map
          (fun precision -> { c with precision })
          (precision_of_string s)
    | "cg", Json.String "cha" ->
        Ok { c with cg_algorithm = Fd_callgraph.Callgraph.Cha }
    | "cg", Json.String "rta" ->
        Ok { c with cg_algorithm = Fd_callgraph.Callgraph.Rta }
    | "act", Json.Bool b -> Ok { c with activation_statements = b }
    | "cxi", Json.Bool b -> Ok { c with context_injection = b }
    | "alias", Json.Bool b -> Ok { c with alias_search = b }
    | "targeted", Json.List items
      when List.for_all (function Json.String _ -> true | _ -> false) items ->
        let targeted =
          List.filter_map (function Json.String s -> Some s | _ -> None) items
        in
        Ok { c with targeted }
    | "icc", Json.Bool icc -> Ok { c with icc }
    | "lifecycle", Json.Bool lifecycle -> Ok { c with lifecycle }
    | "callbacks", Json.Bool callbacks -> Ok { c with callbacks }
    | "per_component_callbacks", Json.Bool b ->
        Ok { c with per_component_callbacks = b }
    | "max_propagations", Json.Int n -> Ok { c with max_propagations = n }
    | "deadline_s", Json.Null -> Ok { c with deadline_s = None }
    | "deadline_s", Json.Float s -> Ok { c with deadline_s = Some s }
    | "deadline_s", Json.Int s ->
        Ok { c with deadline_s = Some (float_of_int s) }
    | "provenance", Json.Bool provenance -> Ok { c with provenance }
    | "profile", Json.Bool profile -> Ok { c with profile }
    | "summary_store", Json.Null -> Ok { c with summary_store = None }
    | "summary_store", Json.String d -> Ok { c with summary_store = Some d }
    | _ when List.exists (fun f -> f.key = key) (encode c) ->
        Error
          (Printf.sprintf "option %S: invalid value %s" key (Json.to_string v))
    | _ -> Error (Printf.sprintf "unknown option %S" key)
  in
  List.fold_left
    (fun acc option -> Result.bind acc (fun c -> apply c option))
    (Ok base) options

let budget ?chaos c =
  Fd_resilience.Budget.create ?deadline_s:c.deadline_s
    ~max_propagations:c.max_propagations ?chaos ()

(** [degradation_ladder config] is the sequence of progressively
    cheaper configurations the fallback driver retries under when a
    run exhausts its budget: the original, then access-path bounds
    3 and 1, then k = 1 with the alias search disabled — trading
    field-sensitivity precision for termination the way FlowDroid
    trades precision for timeouts.  Rungs no cheaper than the one
    before them are dropped, so a ladder starting from an already
    cheap config is short. *)
let degradation_ladder config =
  let rung label c = (label, c) in
  let candidates =
    [
      rung "full" config;
      rung "k=3" { config with max_access_path = min 3 config.max_access_path };
      rung "k=1" { config with max_access_path = min 1 config.max_access_path };
      rung "k=1,no-alias"
        { config with
          max_access_path = min 1 config.max_access_path;
          alias_search = false;
        };
    ]
  in
  (* drop rungs identical to their predecessor (already-cheap bases) *)
  let rec dedup = function
    | (l1, c1) :: (_, c2) :: rest when c1 = c2 -> dedup ((l1, c1) :: rest)
    | r :: rest -> r :: dedup rest
    | [] -> []
  in
  dedup candidates
